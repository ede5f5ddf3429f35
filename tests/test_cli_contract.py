"""Invalid CLI input exits 2 with a typed error, never 0 or a traceback;
a closed output pipe exits 141 without a word."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import toricsys
from toricsys import reeb
from toricsys.cli import EXIT_INVALID, EXIT_PIPE, main
from toricsys.errors import ParamOutOfRange


@pytest.mark.parametrize(
    "argv, says",
    [
        ("strangulate ball:2 --eps nan", "eps must be positive; got nan"),
        ("strain ball:2 --flatten 0.1 --eps nan", "eps must be positive; got nan"),
        ("invariants ellipsoid:1,2,1.5", "n must be a whole number; got 1.5"),
        ("invariants ball:2,0.5", "n must be a whole number; got 0.5"),
        # Subdivisions of 8 PB or beyond numpy's sizes: the request fails at
        # allocation and touches no memory.
        ("invariants ellipsoid:1,1,1e15",
         "ellipsoid subdivision n = 1000000000000000 is too large to allocate"),
        ("invariants ball:2,1e20",
         "ellipsoid subdivision n = 100000000000000000000 is too large to allocate"),
        ("invariants fc:2,0.7,1e15",
         "fc_domain subdivision n = 1000000000000000 is too large to allocate"),
        ("bounds --corpus 0", "corpus size must be at least 1; got 0"),
        ("bounds --corpus -3", "corpus size must be at least 1; got -3"),
        ("invariants ball:abc", "ball takes numbers; got 'abc'"),
        ("invariants ball:nan", "ball takes finite numbers; got 'nan'"),
        ("classify polydisk:1,inf", "polydisk takes finite numbers; got '1,inf'"),
        ("fc-scan --b 2 --grid-n 1", "--grid-n must be at least 2; got 1"),
        ("fc-scan --b 2 --grid ,", "the c grid is empty (--grid)"),
        ("fc-scan --b 2 --grid x", "--grid takes comma-separated numbers; got 'x'"),
        ("fc-scan --b 2 --grid 0.7,x", "--grid takes comma-separated numbers; got '0.7,x'"),
        ("sweep --op strangulate --profile ball:2 --eps-grid ,", "the eps grid is empty (--eps-grid)"),
        ("sweep --op strain --profile ball:2 --eps-grid abc",
         "--eps-grid takes comma-separated numbers; got 'abc'"),
        ("orbits ball:2 --cutoff nan", "action cutoff must be finite; got nan"),
        ("orbits polydisk:1,1 --cutoff 1e15",
         "action cutoff 1000000000000000.0 asks for 1e+15 lattice lines, too many to list"),
        ("orbits polydisk:1,1 --cutoff 1e300",
         "action cutoff 1e+300 asks for 1e+300 lattice lines, too many to list"),
        ("fc-scan --b nan", "fc_domain requires a finite b >= 1; got b = nan"),
        ("fc-scan --b -1", "fc_domain requires b >= 1; got b = -1.0"),
        ("fc-scan --b inf", "fc_domain requires a finite b; got b = inf"),
        ("verify-ruelle ball:2 --n 1", "need at least 2 quadrature points per segment; got 1"),
        ("verify-ruelle ball:2 --n 101", "at most 100 quadrature points per segment; got 101"),
        ("tmin ball:2 --method oracle --oracle-n 0", "oracle cutoff must be at least 1; got 0"),
        ("tmin ball:2 --method oracle --oracle-n -1", "oracle cutoff must be at least 1; got -1"),
        ("tmin ball:2 --oracle-n 5", "--oracle-n is read only with --method oracle"),
        ("invariants {tagged_twice}", "two tag lines for segment 1"),
    ],
)
def test_invalid_input_is_a_typed_error(argv, says, tmp_path, capsys):
    # A rounded polydisk's file whose segment 1 has two tag lines and
    # segment 2 none.
    tagged_twice = tmp_path / "tagged_twice.txt"
    tag_1 = "tag 1 arc 0.8 0.8 0.2 0 0.7853981633974483\n"
    tagged_twice.write_text(
        tag_1 + tag_1 + "vertices:\n1 0\n1 0.8\n0.9414213562373096 0.9414213562373095\n0.8 1\n0 1\n"
    )
    assert main(argv.format(tagged_twice=tagged_twice).split()) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: ParamOutOfRange: {says}\n"


def test_a_strain_witness_listing_that_fails_is_a_typed_error(monkeypatch, capsys):
    """The tip orbits are listed when the CLI reads them, before it prints
    anything."""

    def refuse(cone, cutoff):
        raise ParamOutOfRange("tip listing refused")

    monkeypatch.setattr(reeb, "enumerate_in_cone", refuse)
    assert main("strain ball:2 --flatten 0.1 --eps 1e-3".split()) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ParamOutOfRange: tip listing refused\n"


def test_empty_grid_is_not_ignored(capsys):
    assert main(["fc-scan", "--b", "2", "--grid", ""]) == EXIT_INVALID
    assert capsys.readouterr().err == "error: ParamOutOfRange: the c grid is empty (--grid)\n"


@pytest.mark.parametrize(
    "middle, says",
    [
        ("nan 0.5", "vertex 1 at (nan, 0.5) is not finite"),
        ("0.5 inf", "vertex 1 at (0.5, inf) is not finite"),
    ],
)
def test_non_finite_vertex_in_a_profile_file(middle, says, tmp_path, capsys):
    path = tmp_path / "profile.txt"
    path.write_text(f"vertices:\n1 0\n{middle}\n0 1\n")
    assert main(["invariants", str(path)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: ParamOutOfRange: {says}\n"


@pytest.mark.parametrize(
    "text, says",
    [
        (
            "tag 0 arc 5 5 1 0 1\nvertices:\n1 0\n0 1\n",
            "tag of segment 0 runs from (6.0, 5.0) to (5.54030230586814, 5.841470984807897), "
            "not from vertex 0 at (1.0, 0.0) to vertex 1 at (0.0, 1.0)",
        ),
    ],
)
def test_tag_off_its_segment_in_a_profile_file(text, says, tmp_path, capsys):
    path = tmp_path / "profile.txt"
    path.write_text(text)
    assert main(["invariants", str(path)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: ParamOutOfRange: {says}\n"


def test_overflowing_tag_numbers_in_a_profile_file(tmp_path):
    # In a fresh interpreter with the default warning filters, so that a
    # numpy RuntimeWarning would reach stderr.
    path = tmp_path / "profile.txt"
    path.write_text("tag 0 squared 1e200 0 0 1e200\nvertices:\n1 0\n0 1\n")
    env = {**os.environ, "PYTHONPATH": str(Path(toricsys.__file__).resolve().parents[1])}
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "toricsys.cli", "invariants", str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == EXIT_INVALID
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: ParamOutOfRange: tag of segment 0 runs from (inf, 0.0) to (0.0, inf), "
        "not from vertex 0 at (1.0, 0.0) to vertex 1 at (0.0, 1.0)\n"
    )


@pytest.mark.parametrize(
    "argv, error",
    [
        ("strain ball:2 --flatten nan --eps 0.01", "RadiusTooLarge"),
        ("strain ball:2 --flatten -0.1 --eps 0.01", "RadiusTooLarge"),
        ("invariants ellipsoid:1,2,3", None),
        ("invariants ellipsoid:1,2,3.0", None),
    ],
)
def test_whole_counts_pass_and_nan_radii_fail(argv, error, capsys):
    code = main(argv.split())
    err = capsys.readouterr().err
    if error is None:
        assert (code, err) == (0, "")
    else:
        assert code == EXIT_INVALID and err.startswith(f"error: {error}: ")


@pytest.mark.parametrize(
    "argv",
    ["fc-scan --b 2 --grid 0.7 --grid-n 5", "fc-scan --b 2 --grid 0.7 --grid-n 20"],
)
def test_grid_and_grid_n_are_exclusive(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--grid-n: not allowed with argument --grid" in captured.err


def _cap_address_space():
    import resource

    cap = 800_000 * 1024  # ``ulimit -v 800000``
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps the address space on Linux")
@pytest.mark.parametrize(
    "spec, family, n",
    [("ellipsoid:1,1,3e7", "ellipsoid", 30000000), ("fc:2,0.7,1e7", "fc_domain", 10000000)],
)
def test_builder_out_of_memory_is_a_typed_error(spec, family, n):
    # The index array fits under the cap; a later array or the profile's
    # own does not.
    env = {**os.environ, "PYTHONPATH": str(Path(toricsys.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "toricsys.cli", "invariants", spec],
        capture_output=True, text=True, env=env, preexec_fn=_cap_address_space, timeout=120,
    )
    assert proc.returncode == EXIT_INVALID, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == f"error: ParamOutOfRange: {family} subdivision n = {n} is too large to allocate\n"


@pytest.mark.parametrize(
    "argv, lines",
    [
        # the reader takes one line of a long witness list
        ("strain ball:2 --flatten 0.1 --eps 1e-4", 1),
        # the reader is gone before the short report is flushed
        ("invariants ball:2", 0),
    ],
)
def test_closed_pipe_exits_141_quietly(argv, lines):
    env = {**os.environ, "PYTHONPATH": str(Path(toricsys.__file__).resolve().parents[1])}
    env.pop("PYTHONUNBUFFERED", None)  # block-buffered, as a shell pipe is by default
    proc = subprocess.Popen(
        [sys.executable, "-m", "toricsys.cli", *argv.split()],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    for _ in range(lines):
        assert proc.stdout.readline().endswith(b"\n")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == EXIT_PIPE
    assert err == b""
