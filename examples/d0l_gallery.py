#!/usr/bin/env python3
"""Gallery of the paper's string machinery and a space–time show.

Part 1 prints the five homomorphisms the paper uses, their iterates,
and the repetitiveness that makes them adversarial: every short factor
of a D0L string occurs with frequency Θ(1/|σ|), so a ring carrying one
looks locally identical everywhere — the raw material of every
Θ(n log n) lower bound.

Part 2 draws the synchronous AND algorithm's message flow on such a ring
as an ASCII space–time diagram — symmetry made visible: whole cohorts of
processors fire in lockstep because (Lemma 3.1) they cannot know they
are different.

Run:  python examples/d0l_gallery.py
"""

from repro.core import RingConfiguration, space_time_diagram, symmetry_index
from repro.core.strings import distinct_cyclic_substrings
from repro.homomorphisms import NAMED_HOMOMORPHISMS, make_bound, subword_complexity
from repro.runtime import RunSpec, execute


def gallery() -> None:
    print("=" * 72)
    print("THE HOMOMORPHISMS")
    print("=" * 72)
    for name, hom in NAMED_HOMOMORPHISMS.items():
        print(f"\n{name}: 0 -> {hom.image0}, 1 -> {hom.image1}")
        for k in range(1, 4):
            word = hom.iterate("0", k)
            shown = word if len(word) <= 64 else word[:61] + "..."
            print(f"  h^{k}(0) = {shown}")
        if hom.is_uniform and hom.find_c() is not None:
            bound = make_bound(hom)
            word = hom.iterate("0", 5 if hom.d == 3 else 4)
            print(
                f"  repetitive: c={bound.c}; in h^k(0) of length {len(word)}, "
                f"only {subword_complexity(word, 8)} distinct factors of length 8"
            )
        else:
            print("  (nonuniform: the §7.1 arbitrary-n engine, det "
                  f"{hom.determinant})")


def symmetry_in_action() -> None:
    print()
    print("=" * 72)
    print("SYMMETRY IN ACTION: AND on a D0L ring (h = xor_uniform, k = 3)")
    print("=" * 72)
    hom = NAMED_HOMOMORPHISMS["xor_uniform"]
    word = hom.iterate("0", 3)  # 27 symbols, every factor ≥ 3 copies
    ring = RingConfiguration.from_string(word)
    print(f"inputs: {word}")
    for k in (0, 1, 2):
        print(f"  SI(R,{k}) = {symmetry_index(ring, k)}  "
              f"({len(distinct_cyclic_substrings(word, 2 * k + 1))} distinct "
              f"{2 * k + 1}-factors)")
    result = execute(RunSpec.make("sync", ring, "sync-and", record=True))
    print()
    print(space_time_diagram(ring, result))
    print()
    zeros = word.count("0")
    print(f"all {zeros} zeros fire at cycle 0 — identical 0-neighborhoods,")
    print(f"{zeros} simultaneous senders: that's the Theorem 5.1/6.2 engine.")


def main() -> None:
    gallery()
    symmetry_in_action()


if __name__ == "__main__":
    main()
