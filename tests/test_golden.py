"""CLI output, byte for byte, against golden files.

Each case is a short sequence of ``toricsys`` commands; its golden file
``tests/golden/<case>.txt`` holds, per command, the command line, its
standard output and its exit code.  ``{tmp}`` stands for a fresh scratch
directory, so one command can write a profile that the next one reads.
The files were captured with the unit-step lattice descent and the
bounding-box enumerator that ``toricsys.lattice`` replaced; the kernel
must reproduce them exactly (orbit lists, T_min witnesses, strangulation
and strain witness lines).  The 13 files that run ``strangulate`` were
recaptured when the sector half-angle theta changed from a 60-step
bisection to a closed form exact to rounding.  Theta moved by at most
1.6e-16 (1.4e-12 relative), and with it ``volume_delta_bound``,
``volume_delta`` and, at eps = 0.1 on the diagonal, the T_min value and
witness coordinates (at most 2.2e-12 relative); every (m, n), location,
flags line and exit code stayed the same.  The same 13 files were
recaptured again when strangulation's witness became the least-action
apex orbit (``lattice.min_in_cone``) instead of the small vector closest
in angle to the ray: exactly their 13 ``witness_orbit`` lines changed,
each to the same apex with an action no larger.  The four cases on large
family constructors (``invariants_fc_256``, ``classify_ellipsoid_512``,
``invariants_ellipsoid_512`` and ``strangulate_fc_64``) were captured
before the constructors and ``_validate`` moved from per-vertex Python to
numpy arrays, and hold that move to the same bytes.

To recapture after an intended change of output:
``python tests/test_golden.py`` (with ``src`` on ``PYTHONPATH``).
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

OUT = "{tmp}/out.txt"


def _strangulate_case(eps, ray):
    ray_args = ["--ray", ray] if ray else []
    return [
        ["strangulate", "ball:2", "--eps", eps, *ray_args, "--out", OUT],
        ["tmin", OUT],
        ["tmin", OUT, "--method", "oracle"],
    ]


CASES = {
    "orbits_polydisk": [["orbits", "polydisk:1,2", "--cutoff", "4"]],
    "orbits_ellipsoid": [["orbits", "ellipsoid:1,1,4", "--cutoff", "3"]],
    "orbits_strangulated_ball": [
        ["strangulate", "ball:2", "--eps", "1e-2", "--out", OUT],
        ["orbits", OUT, "--cutoff", "0.025"],
    ],
    **{
        f"strangulate_ball_ray{ray or 'diag'}_eps{eps}": _strangulate_case(eps, ray)
        for ray in ("0.3", None, "1.2")
        for eps in ("1e-1", "1e-2", "1e-3", "1e-4")
    },
    "strain_ball": [["strain", "ball:2", "--flatten", "0.1", "--eps", "1e-2"]],
    "strain_ellipsoid": [["strain", "ellipsoid:1,4,1", "--eps", "1e-2"]],
    "invariants_fc_256": [["invariants", "fc:2,0.7,256"]],
    "classify_ellipsoid_512": [["classify", "ellipsoid:1.5,2.5,512"]],
    "invariants_ellipsoid_512": [["invariants", "ellipsoid:1,3,512"]],
    "strangulate_fc_64": [
        ["strangulate", "fc:2,0.7,64", "--eps", "1e-2", "--out", OUT],
        ["invariants", OUT],
    ],
}


def render(commands, tmp) -> str:
    """Run the commands in-process and return the transcript."""
    from toricsys.cli import main

    out = []
    for argv in commands:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main([a.replace("{tmp}", str(tmp)) for a in argv])
        out.append(f"$ toricsys {' '.join(argv)}\n{stdout.getvalue()}[exit {code}]\n")
    return "".join(out)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path):
    want = (GOLDEN / f"{case}.txt").read_text()
    assert render(CASES[case], tmp_path) == want


def test_every_golden_file_is_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, commands in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN / f"{name}.txt").write_text(render(commands, tmp))
    sys.exit(0)
