"""Size caps, collected in one place.

All caps are hard limits of the data layout or of exhaustive searches, not
tunables: graphs store one machine word per vertex, canonical labeling and
the partition search are exact exponential procedures sized for desk-scale
runs.
"""

# Graph rows are single 32-bit words.
ORDER_MAX = 32

# Canonical labeling / isomorphism cap.
CANON_MAX = 16

# Built-in exhaustive enumeration cap; larger orders arrive via graph6 files.
ENUM_MAX = 9

# Exact coalition-number search cap (Bell-number sized search).
CNUM_MAX = 9

# Default arrow cap for singleton-coalition chains; a guard only, the
# characterized range terminates or cycles far earlier.
CHAIN_STEPS_DEFAULT = 64
