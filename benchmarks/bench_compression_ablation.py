"""Section III-D ablation — CSR/CSC compression of packed data.

The paper: the group operator's packed output carries redundant key/add-on
data; compressing it with CSC "can improve the data communication
performance, while it highly depends on the input data.  We have observed up
to 13% improvement for the graph datasets in our evaluation."

This bench packs each synthetic dataset's edges by in-vertex (with the
indegree add-on, exactly the hybrid-cut intermediate of Figure 11), measures
the byte saving of CSC compression, and converts it to shuffle-time saving
under the cluster network model.  The CSC form is not on the run path; it
lives with this ablation in ``_ablations.py``.
"""

import pytest

from _harness import Experiment, shape
from repro.cluster import INFINIBAND_QDR
from repro.core.dataset import Dataset
from repro.formats import pack
from apps.graph import DATASETS, generate_graph
from repro.ops import Count, Group

from _ablations import compression_ratio, to_csc

SCALE = 0.01


@pytest.fixture(scope="module")
def packed_intermediates():
    out = {}
    for name in DATASETS:
        g = generate_graph(name, scale=SCALE, seed=37)
        grouped = Group(
            "vertex_b", addons=[(Count(), "indegree", None)], output_format="pack"
        ).apply_local(g.to_dataset())
        out[name] = grouped.packed
    return out


def run_ablation(packed_intermediates):
    exp = Experiment(
        "Compression ablation", "CSC compression of the packed hybrid-cut intermediate"
    )
    savings = {}
    for name, packed in packed_intermediates.items():
        ratio = compression_ratio(packed)
        csc = to_csc(packed)
        shuffle_plain = INFINIBAND_QDR.transfer_time(packed.nbytes, same_node=False)
        shuffle_csc = INFINIBAND_QDR.transfer_time(csc.nbytes, same_node=False)
        savings[name] = ratio
        exp.add(
            graph=name,
            groups=packed.num_groups,
            records=packed.num_records,
            packed_bytes=packed.nbytes,
            csc_bytes=csc.nbytes,
            saving=ratio,
            shuffle_time_saving=1.0 - shuffle_csc / max(shuffle_plain, 1e-30),
        )
    exp.note("paper: up to 13% communication improvement, data-dependent")
    return exp, savings


def test_compression_ablation(benchmark, packed_intermediates, reporter):
    exp, savings = benchmark.pedantic(
        run_ablation, args=(packed_intermediates,), rounds=1, iterations=1
    )
    reporter.record(exp)
    # compression always helps on grouped graph data, and is data-dependent
    for name, saving in savings.items():
        shape(0.0 < saving < 0.5, f"{name}: CSC saves a data-dependent fraction ({saving:.1%})")
    shape(
        max(savings.values()) > 0.05,
        f"peak saving is material (paper: up to 13%; ours: {max(savings.values()):.1%})",
    )


def test_pack_kernel(benchmark, packed_intermediates):
    """Kernel timing: packing the google edge set by in-vertex."""
    g = generate_graph("google", scale=SCALE, seed=37)
    ds = g.to_dataset()
    result = benchmark(pack, ds.records, ds.schema, "vertex_b")
    assert result.num_records == g.num_edges


def test_csc_roundtrip_kernel(benchmark, packed_intermediates):
    """Kernel timing: CSC compress + decompress of the packed intermediate."""
    packed = packed_intermediates["google"]

    def roundtrip():
        return to_csc(packed).to_packed()

    back = benchmark(roundtrip)
    assert back.num_records == packed.num_records
