"""Indexing service (paper Section 2.1--2.2).

"After all data chunks are stored into the desired locations in the
disk farm, an index (e.g., an R-tree) is constructed using the MBRs of
the chunks.  The index is used by the back-end nodes to find the local
chunks with MBRs that intersect the range query."

Every index answers one contract (sorted int64 ids of the MBRs that
intersect a query rectangle):

- :class:`ScanIndex` -- packed MBR columns sorted on the primary
  dimension, binsearch-narrowed branchless scan (modern-hardware
  answer to tree traversal); the one index the dataset loader and the
  shard router build;
- :class:`RTree` -- the paper's index: dynamic inserts with quadratic
  split plus STR / Hilbert bulk loading, kept as the baseline the
  index ablation measures against;
- :class:`BruteForceIndex` -- the vectorized linear scan every other
  index is checked against in tests and benches;
- :class:`GridIndex` and :class:`HierarchicalBitmapIndex` --
  alternative structures with no caller outside their own tests.
"""

from repro.index.base import SpatialIndex
from repro.index.bitmap import HierarchicalBitmapIndex
from repro.index.brute import BruteForceIndex
from repro.index.grid import GridIndex
from repro.index.rtree import RTree
from repro.index.scan import ScanIndex

__all__ = [
    "SpatialIndex",
    "BruteForceIndex",
    "GridIndex",
    "RTree",
    "ScanIndex",
    "HierarchicalBitmapIndex",
]
