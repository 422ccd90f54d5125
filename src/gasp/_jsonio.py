"""Deterministic JSON/CSV emission for the command-line tool.

Hand-rolled on purpose: the output contract fixes the float formatting
(17 significant digits in JSON, 9 in CSV), while the stdlib json module
prints shortest-round-trip reprs, so it escapes the strings only.  Both
emitters are pure functions: identical runs give byte-identical documents.
"""

import json
import math


def format_float(v, digits):
    """%.{digits}g with non-finite values spelled out as words."""
    v = float(v)
    if math.isinf(v):
        return "-inf" if v < 0 else "inf"
    if math.isnan(v):
        return "nan"
    return format(v, ".%dg" % digits)


def _json_scalar(v, digits):
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        if not math.isfinite(v):
            # strict JSON has no Infinity/NaN literals; keep the document
            # parseable everywhere and spell them as strings
            return '"%s"' % format_float(v, digits)
        return format_float(v, digits)
    if isinstance(v, str):
        return json.dumps(v, ensure_ascii=False)
    raise TypeError("cannot serialize %r" % type(v))


def _json_value(v, digits, indent):
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(v, dict):
        if not v:
            return "{}"
        items = (
            "%s%s: %s" % (inner, _json_scalar(str(k), digits),
                          _json_value(val, digits, indent + 1))
            for k, val in v.items()
        )
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        items = ("%s%s" % (inner, _json_value(val, digits, indent + 1))
                 for val in v)
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return _json_scalar(v, digits)


def json_document(obj, digits=17):
    """Serialize dict/list/scalar trees; keys keep insertion order."""
    return _json_value(obj, digits, 0) + "\n"


def csv_document(header, rows, digits=9):
    """CSV with a header row; floats at 9 significant digits.

    Cells may be numbers, strings, or None (empty cell).  The field names
    and values in use contain no commas or quotes, so no quoting layer.
    """
    def cell(v):
        if v is None:
            return ""
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, int):
            return str(v)
        if isinstance(v, float):
            return format_float(v, digits)
        return str(v)

    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell(v) for v in row))
    return "\n".join(lines) + "\n"
