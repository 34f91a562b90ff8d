#!/usr/bin/env python3
"""Run the full adjunction verification over a seeded corpus.

Checks, for every Vquiver and algebra in the corpus: the unit is an
isomorphism of Vquivers, the counit is surjective, the F-triangle holds at
depth 1 and the G-triangle holds on the nose.  Also re-derives the
bound-quiver presentation of each algebra and confirms the counit kernel is
admissible.

Usage:
    python scripts/run_adjunction_suite.py [--seed 2024] [--vquivers 12]
"""

import argparse
import sys
from dataclasses import dataclass

from quivalg import adjunction as adj
from quivalg import algebra as alg
from quivalg import bound, corpus
from quivalg.errors import QuivalgError


@dataclass
class SuiteConfig:
    seed: int = 2024
    n_vquivers: int = 12
    check_presentations: bool = True


def run(config: SuiteConfig) -> bool:
    vquivers = corpus.corpus_vquivers(config.seed, config.n_vquivers)
    algebras = corpus.corpus_sbalg_ac()
    print(f"corpus: {len(vquivers)} Vquivers, {len(algebras)} algebras "
          f"(seed {config.seed})")
    report = adj.triangle_identities(vquivers, algebras)
    for entry in report.entries:
        line = f"{'PASS' if entry.ok else 'FAIL'} {entry.case}:{entry.check}"
        if entry.detail:
            line += f" {entry.detail}"
        print(line)
    ok = report.all_pass
    if config.check_presentations:
        for name, a in algebras:
            try:
                pres = adj.present_as_bound_quiver(a)
                admissible = bound.check_admissible(pres.relations).admissible
                good = admissible and alg.is_isomorphism(pres.isomorphism)
                print(f"{'PASS' if good else 'FAIL'} {name}:presentation "
                      f"kernel dim {pres.kernel.dim}, m = {pres.admissible_m}")
                ok &= good
            except QuivalgError as exc:
                print(f"FAIL {name}:presentation {type(exc).__name__}: {exc}")
                ok = False
    print("all checks passed" if ok else "FAILURES above")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--vquivers", type=int, default=12)
    parser.add_argument("--no-presentations", action="store_true")
    args = parser.parse_args()
    config = SuiteConfig(
        seed=args.seed,
        n_vquivers=args.vquivers,
        check_presentations=not args.no_presentations,
    )
    return 0 if run(config) else 1


if __name__ == "__main__":
    sys.exit(main())
