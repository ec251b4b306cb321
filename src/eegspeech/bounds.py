"""Numeric bounds of the run settings, each declared once: as JSON Schema
keywords (``minimum``, ``exclusiveMinimum``, ``maximum``) in its field's
metadata.  `check_bounds` enforces them when settings are built, and
`section_schema` publishes them as the config schema's section, so the config
file, the command line and code that builds settings directly meet one rule.
Type checks and rules between two fields stay in each type's ``__post_init__``.
"""

from __future__ import annotations

import dataclasses
import operator

_COMPARISONS = {"minimum": (">=", operator.ge), "exclusiveMinimum": (">", operator.gt),
                "maximum": ("<=", operator.le)}


def check_bounds(settings) -> None:
    """A ValueError naming the first field of ``settings`` outside its bounds;
    NaN is outside every bound."""
    for f in dataclasses.fields(settings):
        value = getattr(settings, f.name)
        for keyword, bound in f.metadata.items():
            symbol, holds = _COMPARISONS[keyword]
            if not holds(value, bound):
                raise ValueError(f"{f.name} must be {symbol} {bound}, got {value!r}")


def section_schema(settings_type, omit=()) -> dict:
    """The config schema's section for ``settings_type``: a key per field not
    in ``omit``, typed by its ``int`` or ``float`` annotation and bounded by
    its metadata."""
    properties = {f.name: {"type": {"int": "integer", "float": "number"}[f.type], **f.metadata}
                  for f in dataclasses.fields(settings_type) if f.name not in omit}
    return {"type": "object", "additionalProperties": False, "properties": properties}
