"""Generated damage to each input file of the staged subcommands: whatever
the damage, ``main()`` returns 0, 2, 3 or 4 and raises nothing.

The damages are the ones a copy, an editor or a truncated transfer makes:
a cut-off file, a dropped or doubled line, one byte turned into a tab, a
newline, a CR or a letter, an inserted 0xFF byte, or a repeated byte.  The
GO-shaped ontology also gets well-formed damage to its structure: a moved
stanza, an ``is_a`` to the other namespace's root, a term moved to another
namespace, or an obsolete parent.
"""

import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gofusion.cli import main  # noqa: E402
from gofusion.synth import make_dataset, write_dataset  # noqa: E402

from conftest import perfbench_godag  # noqa: E402

# subcommand -> (its input flags, its other flags)
COMMANDS = {
    "distances": (("obo", "annotations", "expression_a"), ()),
    "cluster": (("d_e", "d_go"), ("--balancing", "fixed_gamma", "--gamma", "0.5", "--k", "6")),
    "assign": (("partition", "expression_a", "expression_b"), ()),
    "infer": (("partition", "obo", "annotations", "truth"), ()),
    "eval": (("partition", "obo", "annotations", "truth", "inferred", "against"), ()),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict[str, Path]:
    """A small synth set and the files its fixed-gamma pipeline writes."""
    root = tmp_path_factory.mktemp("damage")
    files = write_dataset(make_dataset(seed=3, subgroups_per_family=4), root / "data")
    out = root / "run"
    argv = ["pipeline", "--balancing", "fixed_gamma", "--gamma", "0.5", "--k", "6",
            "--seed", "7", "--out-dir", str(out)]
    for key in ("obo", "annotations", "expression_a", "expression_b"):
        argv += [f"--{key.replace('_', '-')}", str(files[key])]
    assert main(argv) == 0
    made = {key: out / f"{key}.tsv" for key in ("d_e", "d_go", "partition", "inferred")}
    return {**files, **made, "against": made["partition"]}


@st.composite
def damaged(draw, good: bytes) -> bytes:
    kind = draw(st.sampled_from(["truncate", "drop", "duplicate", "swap", "0xff", "repeat"]))
    if kind in ("drop", "duplicate"):
        lines = good.splitlines(keepends=True)
        i = draw(st.integers(0, len(lines) - 1))
        lines[i : i + 1] = [] if kind == "drop" else [lines[i]] * 2
        return b"".join(lines)
    i = draw(st.integers(0, len(good) - 1))
    if kind == "truncate":
        return good[:i]
    if kind == "swap":
        return good[:i] + draw(st.sampled_from([b"\t", b"\n", b"\r", b"x"])) + good[i + 1 :]
    if kind == "0xff":
        return good[:i] + b"\xff" + good[i:]
    return good[: i + 1] + good[i:]


@settings(deadline=None, max_examples=500)
@given(data=st.data())
def test_damaged_input_ends_in_an_exit_code(inputs, data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)), label="command")
    keys, extra = COMMANDS[command]
    target = data.draw(st.sampled_from(keys), label="damaged input")
    bad = data.draw(damaged(inputs[target].read_bytes()), label="damaged bytes")
    with tempfile.TemporaryDirectory() as tmp:
        files = {**inputs, target: Path(tmp) / "damaged"}
        files[target].write_bytes(bad)
        argv = [command, *extra, "--out-dir", str(Path(tmp) / "out")]
        for key in keys:
            argv += [f"--{key.replace('_', '-')}", str(files[key])]
        assert main(argv) in (0, 2, 3, 4)


@pytest.fixture(scope="module")
def godag_inputs(tmp_path_factory) -> dict[str, Path]:
    return perfbench_godag().write_godag(1, tmp_path_factory.mktemp("godag"))


@st.composite
def restructured(draw, obo: str) -> str:
    """``obo`` with one structural change; every line stays well formed."""
    godag = perfbench_godag()
    head, *stanzas = obo.split("\n\n")
    kind = draw(st.sampled_from(["move", "retarget", "namespace", "obsolete"]))
    if kind == "move":
        stanza = stanzas.pop(draw(st.integers(0, len(stanzas) - 1)))
        stanzas.insert(draw(st.integers(0, len(stanzas))), stanza)
        return "\n\n".join([head, *stanzas])
    children = [i for i, s in enumerate(stanzas) if "\nis_a: " in s]
    i = children[draw(st.integers(0, len(children) - 1))]
    if kind == "retarget":
        lines = stanzas[i].split("\n")
        edges = [j for j, line in enumerate(lines) if line.startswith("is_a: ")]
        lines[draw(st.sampled_from(edges))] = f"is_a: {godag.MF_ROOT}"
        stanzas[i] = "\n".join(lines)
    elif kind == "namespace":
        other = draw(st.sampled_from([godag.MF, "cellular_component"]))
        stanzas[i] = stanzas[i].replace(f"namespace: {godag.BP}", f"namespace: {other}")
    else:
        parent = draw(st.sampled_from(
            [line[6:] for line in stanzas[i].split("\n") if line.startswith("is_a: ")]
        ))
        j = next(j for j, s in enumerate(stanzas) if s.startswith(f"[Term]\nid: {parent}\n"))
        stanzas[j] += "\nis_obsolete: true"
    return "\n\n".join([head, *stanzas])


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_restructured_ontology_ends_in_an_exit_code(godag_inputs, data):
    obo = data.draw(restructured(godag_inputs["obo"].read_text()), label="restructured obo")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "go.obo"
        path.write_text(obo)
        argv = ["distances", "--obo", str(path), "--metric", "pearson",
                "--annotations", str(godag_inputs["annotations"]),
                "--expression-a", str(godag_inputs["expression_a"]),
                "--out-dir", str(Path(tmp) / "out")]
        assert main(argv) in (0, 2, 3, 4)
