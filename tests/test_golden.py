"""Pinned outputs: the SHA-256 of traces, link-failure masks and trace CSVs.

* Traces: every trace array and residual series of `run`, for the five
  algorithms on the 39-agent cases, seeds 1-3, at the shipped configs'
  parameters (directed and virtual at the robust config's).
* Masks: `GraphSchedule.masks` of both 39-agent graphs at the configs' q,
  for seeds 1-3 over the configs' K and for seeds 0, 2^63 and 2^64 - 1
  over 50 steps (the ends of the seed range).
* CSVs: the ``trace_<seed>.csv`` files that ``dercoord run`` writes for
  the three shipped configs, seeds 1-3. ``summary.csv`` is left out: its
  fitted rates go through ``np.polyfit``, whose last bits depend on the
  LAPACK build, not on this package.

A change that moves any bit fails here, naming the series, the algorithm,
graph or config, and the seed. When a change is meant to move them, say why
in CHANGES.md and rewrite the pins with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

import dercoord as dc
from dercoord import cli

REPO = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden.json")
CONFIGS = {"pd1": "pd1", "pd2": "pd2", "directed": "robust", "robust": "robust", "virtual": "robust"}
SEEDS = (1, 2, 3)
# Graph -> the config whose q and K its schedules take.
MASK_GRAPHS = {"case39_undirected": "pd1", "case39_directed": "robust"}
EDGE_SEEDS, EDGE_HORIZON = (0, 2**63, 2**64 - 1), 50
CSV_CONFIGS = ("pd1", "pd2", "robust")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def config_path(name: str) -> Path:
    return REPO / "configs" / f"benchmark39_{name}.cfg"


def trace_digests(algorithm: str, seed: int) -> dict[str, str]:
    """Series name -> SHA-256 of its float64 bytes, for one run at the config's parameters."""
    config = dc.load_config(config_path(CONFIGS[algorithm]))
    params = config.params
    schedule = dc.GraphSchedule(config.graph, config.q, seed, params.horizon)
    trace = dc.run(algorithm, config.instance, schedule, params)
    arrays = {name: getattr(trace, name) for name in ("p", "consensus", "y", "v")}
    arrays.update((f"residuals.{key}", value) for key, value in trace.residuals.items())
    return {name: sha256(a.tobytes()) for name, a in arrays.items() if a is not None}


def mask_digests(graph: str) -> dict[str, str]:
    """Seed -> SHA-256 of the schedule's mask block, at the graph's config q and K (50 for the edge seeds)."""
    config = dc.load_config(config_path(MASK_GRAPHS[graph]))
    horizons = {seed: config.params.horizon for seed in SEEDS} | {seed: EDGE_HORIZON for seed in EDGE_SEEDS}
    return {
        str(seed): sha256(dc.GraphSchedule(config.graph, config.q, seed, K).masks.tobytes())
        for seed, K in horizons.items()
    }


def csv_digests(name: str, out: Path) -> dict[str, str]:
    """Seed -> SHA-256 of the trace CSV that ``dercoord run`` writes for the config, seeds 1-3."""
    status = cli.main(["run", str(config_path(name)), "--seeds", ",".join(map(str, SEEDS)), "--out", str(out)])
    assert status == 0, f"{name}: dercoord run exited with {status}"
    return {str(seed): sha256((out / f"trace_{seed}.csv").read_bytes()) for seed in SEEDS}


def moved(what: str, got: dict[str, str], want: dict[str, str]) -> list[str]:
    assert sorted(got) == sorted(want), f"{what}: keys {sorted(got)} != {sorted(want)}"
    return [key for key in want if got[key] != want[key]]


@pytest.mark.parametrize("algorithm", dc.ALGORITHMS)
def test_traces_match_their_pins(algorithm):
    pins = json.loads(GOLDEN.read_text())[algorithm]
    for seed in SEEDS:
        changed = moved(f"{algorithm}, seed {seed}", trace_digests(algorithm, seed), pins[str(seed)])
        assert not changed, f"{algorithm}, seed {seed}: series {', '.join(changed)} moved from their pins"


@pytest.mark.parametrize("graph", MASK_GRAPHS)
def test_masks_match_their_pins(graph):
    changed = moved(graph, mask_digests(graph), json.loads(GOLDEN.read_text())["masks"][graph])
    assert not changed, f"{graph}: masks of seed {', '.join(changed)} moved from their pins"


@pytest.mark.parametrize("name", CSV_CONFIGS)
def test_trace_csvs_match_their_pins(name, tmp_path):
    changed = moved(name, csv_digests(name, tmp_path), json.loads(GOLDEN.read_text())["csv"][name])
    assert not changed, f"benchmark39_{name}.cfg: trace CSV of seed {', '.join(changed)} moved from its pin"


if __name__ == "__main__":
    pins = {a: {str(seed): trace_digests(a, seed) for seed in SEEDS} for a in dc.ALGORITHMS}
    pins["masks"] = {graph: mask_digests(graph) for graph in MASK_GRAPHS}
    with tempfile.TemporaryDirectory() as tmp:
        pins["csv"] = {name: csv_digests(name, Path(tmp) / name) for name in CSV_CONFIGS}
    GOLDEN.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
