"""Symbol series of the classical groups and their cuspidal members.

Each family fixes a defect residue mod 4 (symplectic 1, split even
orthogonal 0, non-split even orthogonal 2); unitary groups are indexed
by partitions instead.  Cuspidal symbols (delta = 0) exist only at the
classical rank patterns: m(m+1) for symplectic, m^2 for even
orthogonal with alternating type, triangular numbers for unitary.
"""

from thetacalc import (
    SP,
    O_MINUS,
    O_PLUS,
    UNITARY,
    SeriesTag,
    enumerate_series,
    format_symbol,
    partitions_of,
    symbol_from_partition,
    unipotent_cuspidal,
    unitary_size,
)

for family in (SP, O_PLUS, O_MINUS):
    sizes = [len(enumerate_series(SeriesTag(family, n))) for n in range(7)]
    print(f"series sizes for {family}: {sizes}")

print()
print("rank-2 symplectic series:")
for sym in enumerate_series(SeriesTag(SP, 2)):
    print("   ", format_symbol(sym))

print()
print("cuspidal catalog up to rank 12:")
for family in (SP, O_PLUS, O_MINUS, UNITARY):
    hits = []
    for n in range(13):
        record = unipotent_cuspidal(SeriesTag(family, n))
        if record.characters:
            hits.append((n, len(record.characters)))
    print(f"   {family}: {hits}")

print()
print("partition symbols for the unitary group of rank 4:")
for lam in partitions_of(4):
    sym = symbol_from_partition(lam)
    print(f"   {str(lam):>14} -> {format_symbol(sym):>8} (size check: {unitary_size(sym)})")
