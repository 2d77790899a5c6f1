"""The public name list: every entry resolves, and every error class is on it."""
from __future__ import annotations

import inspect

import murec
from murec import errors


def test_every_public_name_resolves():
    missing = [name for name in murec.__all__ if not hasattr(murec, name)]
    assert missing == []
    assert len(set(murec.__all__)) == len(murec.__all__)


def test_every_error_class_is_public():
    defined = {
        name
        for name, obj in vars(errors).items()
        if inspect.isclass(obj) and issubclass(obj, Exception) and obj.__module__ == errors.__name__
    }
    assert defined - set(murec.__all__) == set()
