"""Pinned outputs: the SHA-256 of traces, link-failure masks and trace CSVs.

* Traces: every trace array and residual series of `run`, for the six
  algorithms on the 39-agent cases, seeds 1-3, at the shipped configs'
  parameters (`reference.CONFIGS`: directed and virtual at the robust
  config's, centralized at pd1's).
* n = 3000 traces: every trace array, residual series and field of
  ``final`` of `run`, for the six algorithms on a generated n = 3000
  instance and ring-plus-1,500-chord graphs, at the configs' parameters
  and short horizons. A block is 8 steps there, the floor, so these runs
  cross many block edges; the 39-agent runs take blocks of 167-178.
* Masks: `GraphSchedule.masks` of both 39-agent graphs at the configs' q,
  for seeds 1-3 over the configs' K and for seeds 0, 2^63 and 2^64 - 1
  over 50 steps (the ends of the seed range).
* CSVs: the ``trace_<seed>.csv`` files that ``dercoord run`` writes for
  the three shipped configs, seeds 1-3, and each cell of those runs'
  ``summary.csv`` rows, column by column. The ``fitted_rate`` and
  ``fit_r_squared`` cells are left out: they go through ``np.polyfit``,
  whose last bits depend on the LAPACK build, not on this package.

A change that moves any bit fails here, naming the series or column, the
algorithm, graph or config, and the seed. When a change is meant to move
them, say why in CHANGES.md and rewrite the pins with
``PYTHONPATH=src python tests/test_golden.py``, which first prints one
line per pin it adds, removes or changes against the file as it stands,
such as ``removed pd1/1/residuals.stochasticity``. The file keeps the
form that command writes (`pin_text`), so a hand edit must keep it too.
"""

import hashlib
import json
import tempfile
from dataclasses import replace
from functools import cache
from pathlib import Path

import pytest

import dercoord as dc
from dercoord import cli
from reference import CONFIGS, directed

REPO = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden.json")
SEEDS = (1, 2, 3)
# Graph -> the config whose q and K its schedules take.
MASK_GRAPHS = {"case39_undirected": "pd1", "case39_directed": "robust"}
EDGE_SEEDS, EDGE_HORIZON = (0, 2**63, 2**64 - 1), 50
SCALE_N, SCALE_CHORDS, SCALE_SEED = 3000, 1500, 1
SCALE_HORIZONS = {"pd1": 20, "pd2": 20, "centralized": 20, "directed": 10, "robust": 300, "virtual": 5}
CSV_CONFIGS = ("pd1", "pd2", "robust")
# Summary columns computed through np.polyfit.
UNPINNED_COLUMNS = ("fitted_rate", "fit_r_squared")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def config_path(name: str) -> Path:
    return REPO / "configs" / f"benchmark39_{name}.cfg"


def digests(trace, final: bool = False) -> dict[str, str]:
    """Series name -> SHA-256 of its float64 bytes; with `final`, each field of ``trace.final`` too."""
    arrays = {name: getattr(trace, name) for name in ("p", "consensus", "y", "v")}
    arrays.update((f"residuals.{key}", value) for key, value in trace.residuals.items())
    if final:
        arrays.update((f"final.{name}", array) for name, array in zip(("nodes", "arcs"), trace.final.arrays))
    return {name: sha256(a.tobytes()) for name, a in arrays.items() if a is not None}


def trace_digests(algorithm: str, seed: int) -> dict[str, str]:
    """Series name -> digest, for one run at the config's parameters."""
    config = dc.load_config(config_path(CONFIGS[algorithm]))
    params = config.params
    schedule = dc.GraphSchedule(config.graph, config.q, seed, params.horizon)
    return digests(dc.run(algorithm, config.instance, schedule, params))


@cache
def scale_inputs(directed_graph: bool):
    """The generated n = 3000 instance and its graph of the given kind."""
    inst = dc.generate_instance(dc.InstanceSpec(n=SCALE_N), SCALE_SEED)
    spec = dc.GraphSpec(n=SCALE_N, extra_edges=SCALE_CHORDS, directed=directed_graph)
    return inst, dc.generate_graph(spec, SCALE_SEED)


def scale_digests(algorithm: str) -> dict[str, str]:
    """Series and final field -> digest, for one n = 3000 run at the config's parameters and a short horizon."""
    config = dc.load_config(config_path(CONFIGS[algorithm]))
    params = replace(config.params, horizon=SCALE_HORIZONS[algorithm])
    inst, graph = scale_inputs(directed(algorithm))
    schedule = dc.GraphSchedule(graph, config.q, SCALE_SEED, params.horizon)
    return digests(dc.run(algorithm, inst, schedule, params), final=True)


def mask_digests(graph: str) -> dict[str, str]:
    """Seed -> SHA-256 of the schedule's mask block, at the graph's config q and K (50 for the edge seeds)."""
    config = dc.load_config(config_path(MASK_GRAPHS[graph]))
    horizons = {seed: config.params.horizon for seed in SEEDS} | {seed: EDGE_HORIZON for seed in EDGE_SEEDS}
    return {
        str(seed): sha256(dc.GraphSchedule(config.graph, config.q, seed, K).masks.tobytes())
        for seed, K in horizons.items()
    }


def run_cli(name: str, out: Path) -> Path:
    """`out`, after ``dercoord run`` has written the config's outputs for seeds 1-3 into it."""
    status = cli.main(["run", str(config_path(name)), "--seeds", ",".join(map(str, SEEDS)), "--out", str(out)])
    assert status == 0, f"{name}: dercoord run exited with {status}"
    return out


def csv_digests(out: Path) -> dict[str, str]:
    """Seed -> SHA-256 of the trace CSV in `out`."""
    return {str(seed): sha256((out / f"trace_{seed}.csv").read_bytes()) for seed in SEEDS}


def summary_digests(out: Path) -> dict[str, dict[str, str]]:
    """Seed -> column -> SHA-256 of the cell's text in `out`'s summary.csv, without the fitted columns."""
    header, *rows = (out / "summary.csv").read_text().splitlines()
    digests = {}
    for row in rows:
        cells = dict(zip(header.split(","), row.split(",")))
        digests[cells["seed"]] = {
            column: sha256(text.encode()) for column, text in cells.items() if column not in UNPINNED_COLUMNS
        }
    return digests


def pin_text(pins: dict) -> str:
    """The text of the pin file holding `pins`: keys sorted, one-space indents, a closing newline."""
    return json.dumps(pins, indent=1, sort_keys=True) + "\n"


def flat_pins(pins: dict, prefix: str = "") -> dict[str, str]:
    """The pins as path -> digest, the path joining the nested keys with '/'."""
    flat = {}
    for key, value in pins.items():
        if isinstance(value, dict):
            flat.update(flat_pins(value, f"{prefix}{key}/"))
        else:
            flat[prefix + key] = value
    return flat


def pin_changes(old: dict, new: dict) -> list[str]:
    """One line per pin that `new` adds to, removes from or changes in `old`, by path."""
    old, new = flat_pins(old), flat_pins(new)
    verdicts = {}
    for path in old.keys() | new.keys():
        if path not in new:
            verdicts[path] = "removed"
        elif path not in old:
            verdicts[path] = "added"
        elif old[path] != new[path]:
            verdicts[path] = "changed"
    return [f"{verdicts[path]} {path}" for path in sorted(verdicts)]


def moved(what: str, got: dict[str, str], want: dict[str, str]) -> list[str]:
    assert sorted(got) == sorted(want), f"{what}: keys {sorted(got)} != {sorted(want)}"
    return [key for key in want if got[key] != want[key]]


def test_pin_file_keeps_the_regenerators_form():
    text = GOLDEN.read_text()
    assert text == pin_text(json.loads(text)), "golden.json: rewrite it with pin_text's form"


def test_pin_changes_name_each_added_removed_and_changed_pin():
    old = {"pd1": {"1": {"p": "a", "residuals.stochasticity": "b"}}, "masks": {"g": {"0": "c"}}}
    new = {"pd1": {"1": {"p": "a2"}}, "masks": {"g": {"0": "c", "1": "d"}}}
    assert pin_changes(old, new) == ["added masks/g/1", "changed pd1/1/p", "removed pd1/1/residuals.stochasticity"]
    assert pin_changes(new, new) == []


@pytest.mark.parametrize("algorithm", dc.ALGORITHMS)
def test_traces_match_their_pins(algorithm):
    pins = json.loads(GOLDEN.read_text())[algorithm]
    for seed in SEEDS:
        changed = moved(f"{algorithm}, seed {seed}", trace_digests(algorithm, seed), pins[str(seed)])
        assert not changed, f"{algorithm}, seed {seed}: series {', '.join(changed)} moved from their pins"


@pytest.mark.parametrize("algorithm", dc.ALGORITHMS)
def test_n3000_traces_match_their_pins(algorithm):
    pins = json.loads(GOLDEN.read_text())["n3000"][algorithm]
    changed = moved(f"{algorithm}, n = 3000", scale_digests(algorithm), pins)
    assert not changed, f"{algorithm}, n = 3000: series {', '.join(changed)} moved from their pins"


@pytest.mark.parametrize("graph", MASK_GRAPHS)
def test_masks_match_their_pins(graph):
    changed = moved(graph, mask_digests(graph), json.loads(GOLDEN.read_text())["masks"][graph])
    assert not changed, f"{graph}: masks of seed {', '.join(changed)} moved from their pins"


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    """Config name -> the directory ``dercoord run`` wrote for it; each config runs once per module."""
    made = {}

    def outputs(name: str) -> Path:
        if name not in made:
            made[name] = run_cli(name, tmp_path_factory.mktemp(name))
        return made[name]

    return outputs


@pytest.mark.parametrize("name", CSV_CONFIGS)
def test_trace_csvs_match_their_pins(name, cli_outputs):
    changed = moved(name, csv_digests(cli_outputs(name)), json.loads(GOLDEN.read_text())["csv"][name])
    assert not changed, f"benchmark39_{name}.cfg: trace CSV of seed {', '.join(changed)} moved from its pin"


@pytest.mark.parametrize("name", CSV_CONFIGS)
def test_summary_columns_match_their_pins(name, cli_outputs):
    got, want = summary_digests(cli_outputs(name)), json.loads(GOLDEN.read_text())["summary"][name]
    assert sorted(got) == sorted(want), f"benchmark39_{name}.cfg: summary seeds {sorted(got)} != {sorted(want)}"
    for seed in want:
        changed = moved(f"benchmark39_{name}.cfg, seed {seed}", got[seed], want[seed])
        assert not changed, f"benchmark39_{name}.cfg, seed {seed}: summary column {', '.join(changed)} moved from its pin"


if __name__ == "__main__":
    pins = {a: {str(seed): trace_digests(a, seed) for seed in SEEDS} for a in dc.ALGORITHMS}
    pins["n3000"] = {a: scale_digests(a) for a in dc.ALGORITHMS}
    pins["masks"] = {graph: mask_digests(graph) for graph in MASK_GRAPHS}
    with tempfile.TemporaryDirectory() as tmp:
        outs = {name: run_cli(name, Path(tmp) / name) for name in CSV_CONFIGS}
        pins["csv"] = {name: csv_digests(out) for name, out in outs.items()}
        pins["summary"] = {name: summary_digests(out) for name, out in outs.items()}
    for line in pin_changes(json.loads(GOLDEN.read_text()), pins):
        print(line)
    GOLDEN.write_text(pin_text(pins))
