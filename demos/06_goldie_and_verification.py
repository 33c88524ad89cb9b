"""Goldie predicates and the verification harness
=================================================

Every finite module is Goldie (finite kernel-intersection poset, finite
uniform dimension), but quasi-projectivity and retractability genuinely
vary; the harness evaluates each cataloged statement with its hypotheses
first, so hypothesis-dropping searches can probe necessity.
"""

from finmod.algebra import cyclic_module, direct_sum, regular_module, zn_ring
from finmod.harness import (
    STATEMENT_IDS,
    check_statement,
    generate_corpus,
    run_suite,
    search_counterexamples,
)
from finmod.lattice import is_goldie

# Predicate profiles: the mixed group Z/2 (+) Z/4 over Z/4 is the classic
# finite module that fails quasi-projectivity.
ring = zn_ring(4)
mixed, _, _ = direct_sum(cyclic_module(ring, 2), regular_module(ring))
profile = is_goldie(mixed)
print("Z2(+)Z4 profile:", profile)

# A small corpus, deterministic in the seed.
corpus = generate_corpus(seed=0, budget=10)
print("corpus:", [inst.name for inst in corpus.instances])

# One statement on one instance.
t2 = next(inst for inst in corpus.instances if inst.name == "T2(Z2)-regular")
print(check_statement("THM-MAIN", t2).line())

# The whole catalog on the small corpus.
summary = run_suite(corpus, ids=["COR-NESL", "THM-MAIN", "COR-PRIMENILGOLDIE"])
print(summary.text())

# Dropping a hypothesis: the endomorphism-image identity genuinely needs
# quasi-projectivity; the mixed group witnesses it.
for report in search_counterexamples("LEM-FPROD", "quasi_projective", corpus):
    print("search:", report.line())

print("catalog size:", len(STATEMENT_IDS))
