"""
The benchmark's tracer (perfbench/worker.py) wraps program attributes by
name; every name it wraps must exist, and removing the spans must restore
the originals.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import worker  # noqa: E402
from spans import Tracer  # noqa: E402

from schubfactor import cli, cohomology, verifier  # noqa: E402
from schubfactor.composition import Composition  # noqa: E402
from schubfactor.polynomial import Polynomial  # noqa: E402

OWNERS = (cli, cohomology, verifier, Polynomial)


def test_install_spans_wraps_and_restores_every_attribute():
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = Tracer()
    try:
        worker.install_spans(tracer)
        assert [dict(vars(owner)) for owner in OWNERS] != before
        verifier.verify_identity(Composition((2, 1)), verifier.ORTHOGONAL)
    finally:
        tracer.remove()
    assert [dict(vars(owner)) for owner in OWNERS] == before
    spans = tracer.summary(1)["spans"]
    for span in ("verifier", "wset.member_set"):
        assert spans[span]["calls"] >= 1, span
    # the Monk expansion of the factored class decides the verdict: no expanded ordinary
    # class, no Schubert sum, no span scan, no greedy basis expansion
    for span in ("cohomology.product_side", "schubert.sum", "schubert.expand", "schubert.span"):
        assert spans[span]["calls"] == 0, span


def test_install_spans_sees_the_witness_of_a_failing_verify():
    # a failing report builds its witness from one Schubert sum, through the name the tracer wraps,
    # and the factored class's own expansion, not the ordinary-class builders
    mu = Composition((2, 1))
    members = verifier.member_set(mu, verifier.ORTHOGONAL).members
    tracer = Tracer()
    try:
        worker.install_spans(tracer)
        report = verifier.verify_identity_for_members(mu, verifier.ORTHOGONAL, members[1:])
    finally:
        tracer.remove()
    assert not report.passed and report.witness
    spans = tracer.summary(1)["spans"]
    assert spans["schubert.sum"]["calls"] == 1
    assert spans["cohomology.product_side"]["calls"] == 0


def test_install_spans_sees_every_restriction_of_the_suite():
    # the localization workload's substitute_calls counter reads these spans
    tracer = Tracer()
    try:
        worker.install_spans(tracer)
        verifier.verify_equivariant_suite(Composition((2, 1)), verifier.ORTHOGONAL)
    finally:
        tracer.remove()
    spans = tracer.summary(1)["spans"]
    calls = {name: span["calls"] for name, span in spans.items()}
    restrictions = ("cohomology.block_torus", "cohomology.specialize")
    for span in restrictions + ("cohomology.weight_product", "polynomial.substitute", "polynomial.mul"):
        assert calls.get(span, 0) >= 1, span
    # one weight product per item of the tree (123, 132 and 231, one per block orbit of S_3);
    # the fixed-point tree runs in the polynomial kernel, so only the block-torus
    # restriction and the specialization substitute, once each
    assert calls["cohomology.weight_product"] == 3
    assert calls.get("cohomology.fixed_point", 0) == 0
    assert calls["polynomial.substitute"] == sum(calls[span] for span in restrictions) == 2
