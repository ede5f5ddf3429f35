"""Plain-text profile files.

Format: optional ``family`` line, ``param`` lines, one ``tag`` line per
tagged segment, then a ``vertices:`` block with one ``w1 w2`` pair per
line.  A tag line reads ``tag <segment> <kind> <numbers>``, the kind a
key of ``geometry.TAG_KINDS`` (``arc``: center, radius and the two
angles; ``squared``: the two mu end points), and at most one per segment.
Values are written with 17 significant digits so the writer round-trips
bit-exactly through the reader.  Family and params are carried through as
read; they are not rebuilt, so a file's vertices and tags are the whole
profile.  Both directions go through the profile's arrays (``xy`` and
``tag_columns``) and make no tag object.
"""

from __future__ import annotations

import math
from pathlib import Path

from .errors import ParamOutOfRange
from .geometry import TAG_KINDS, MomentProfile


def dumps(p: MomentProfile) -> str:
    lines = ["# toricsys profile", f"family = {p.family}"]
    for name, val in p.params:
        lines.append(f"param {name} = {val:.17g}")
    tag_lines = {
        i: " ".join([f"tag {i} {cls.kind}", *(f"{v:.17g}" for v in row)])
        for cls, (segs, nums) in p.tag_columns.items()
        for i, row in zip(segs.tolist(), nums.tolist())
    }
    lines += [tag_lines[i] for i in p.tagged.tolist()]
    lines.append("vertices:")
    for x, y in p.xy.tolist():
        lines.append(f"{x:.17g} {y:.17g}")
    return "\n".join(lines) + "\n"


def save(p: MomentProfile, path) -> None:
    Path(path).write_text(dumps(p))


def _read_tag(line: str) -> tuple[int, type, list[float]]:
    _, index, kind, *fields = line.split()
    if kind not in TAG_KINDS:
        raise ParamOutOfRange(f"unknown tag kind {kind!r} in {line!r}")
    cls = TAG_KINDS[kind]
    numbers = [float(x) for x in fields]
    if len(numbers) != cls.n_numbers:
        raise ValueError(f"{kind} takes {cls.n_numbers} numbers")  # a bad line
    if not all(map(math.isfinite, numbers)):
        raise ParamOutOfRange(f"non-finite number in tag line: {line!r}")
    return int(index), cls, numbers


def loads(text: str) -> MomentProfile:
    """The profile a file's text describes; a line that does not parse
    raises ``ParamOutOfRange``."""
    family = "custom"
    params: dict[str, float] = {}
    tag_lines: dict[int, tuple[type, list[float]]] = {}
    vertices: list[tuple[float, float]] = []
    in_vertices = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if in_vertices:
                x, y = map(float, line.replace(",", " ").split())
                vertices.append((x, y))
            elif line == "vertices:":
                in_vertices = True
            elif line.startswith("family"):
                family = line.partition("=")[2].strip()
            elif line.startswith("param"):
                name, val = line[len("param") :].split("=", 1)
                params[name.strip()] = float(val)
            elif line.startswith("tag"):
                index, *tag = _read_tag(line)
                if index in tag_lines:
                    raise ParamOutOfRange(f"two tag lines for segment {index}")
                tag_lines[index] = tag
            else:
                raise ParamOutOfRange(f"unrecognized line: {line!r}")
        except ValueError:
            raise ParamOutOfRange(f"bad line: {line!r}") from None
    if not vertices:
        raise ParamOutOfRange("profile file has no vertices")
    n = len(vertices) - 1
    for i in tag_lines:
        if not 0 <= i < n:
            raise ParamOutOfRange(f"tag line for segment {i} of a profile with {n} segments")
    columns: dict[type, tuple[list[int], list[list[float]]]] = {}
    for i in sorted(tag_lines):
        cls, numbers = tag_lines[i]
        segs, rows = columns.setdefault(cls, ([], []))
        segs.append(i)
        rows.append(numbers)
    return MomentProfile(vertices, columns, family=family, params=tuple(params.items()))


def load(path) -> MomentProfile:
    return loads(Path(path).read_text())
