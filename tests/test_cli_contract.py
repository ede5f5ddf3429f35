"""Invalid CLI input exits 2 with a typed error, never 0 or a traceback."""

import pytest

from toricsys.cli import EXIT_INVALID, main


@pytest.mark.parametrize(
    "argv, says",
    [
        ("strangulate ball:2 --eps nan", "eps must be positive; got nan"),
        ("strain ball:2 --flatten 0.1 --eps nan", "eps must be positive; got nan"),
        ("invariants ellipsoid:1,2,1.5", "n must be a whole number; got 1.5"),
        ("invariants ball:2,0.5", "n must be a whole number; got 0.5"),
        ("bounds --corpus 0", "corpus size must be at least 1; got 0"),
        ("bounds --corpus -3", "corpus size must be at least 1; got -3"),
        ("invariants ball:abc", "ball takes numbers; got 'abc'"),
        ("invariants ball:nan", "ball takes finite numbers; got 'nan'"),
        ("classify polydisk:1,inf", "polydisk takes finite numbers; got '1,inf'"),
        ("fc-scan --b 2 --grid-n 1", "--grid-n must be at least 2; got 1"),
        ("fc-scan --b 2 --grid ,", "the c grid is empty"),
    ],
)
def test_invalid_input_is_a_typed_error(argv, says, capsys):
    assert main(argv.split()) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: ParamOutOfRange: {says}\n"


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
