"""Plain-text profile files.

Format: optional ``family`` line, ``param`` lines, then a ``vertices:``
block with one ``w1 w2`` pair per line.  Values are written with 17
significant digits so the writer round-trips bit-exactly through the
reader.  Known families are rebuilt through their constructors on read so
analytic segment tags survive the round trip; if the rebuilt vertices
disagree with the file, the file's vertices win.
"""

from __future__ import annotations

from pathlib import Path

from .errors import ParamOutOfRange, ToricError
from .geometry import FAMILIES, MomentProfile


def dumps(p: MomentProfile) -> str:
    lines = ["# toricsys profile", f"family = {p.family}"]
    for name, val in p.params:
        lines.append(f"param {name} = {val:.17g}")
    lines.append("vertices:")
    for x, y in p.vertices:
        lines.append(f"{x:.17g} {y:.17g}")
    return "\n".join(lines) + "\n"


def save(p: MomentProfile, path) -> None:
    Path(path).write_text(dumps(p))


def _rebuild_from_family(family: str, params: dict[str, float]):
    """The family's constructor applied to the file's params (extra params
    are ignored), or None for a family outside ``FAMILIES``."""
    if family not in FAMILIES:
        return None
    build, required, optional = FAMILIES[family]
    args = [params[name] for name in required]
    args += [params[name] for name in optional if name in params]
    return build(*args)


def loads(text: str) -> MomentProfile:
    family = "custom"
    params: dict[str, float] = {}
    vertices: list[tuple[float, float]] = []
    in_vertices = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if in_vertices:
            parts = line.replace(",", " ").split()
            if len(parts) != 2:
                raise ParamOutOfRange(f"bad vertex line: {line!r}")
            vertices.append((float(parts[0]), float(parts[1])))
        elif line == "vertices:":
            in_vertices = True
        elif line.startswith("family"):
            family = line.split("=", 1)[1].strip()
        elif line.startswith("param"):
            body = line[len("param") :].strip()
            name, val = body.split("=", 1)
            params[name.strip()] = float(val)
        else:
            raise ParamOutOfRange(f"unrecognized line: {line!r}")
    if not vertices:
        raise ParamOutOfRange("profile file has no vertices")
    verts = tuple(vertices)
    try:
        rebuilt = _rebuild_from_family(family, params)
    except (ToricError, KeyError, ValueError, OverflowError):
        rebuilt = None
    if rebuilt is not None and rebuilt.vertices == verts:
        return rebuilt
    return MomentProfile(
        verts,
        family="custom" if rebuilt is None else family,
        params=tuple(sorted(params.items())),
    )


def load(path) -> MomentProfile:
    return loads(Path(path).read_text())
