"""Independent certificate that an instance has no rainbow matching.

A rainbow matching of n relations is n disjoint pairs, one pair of each
relation, so it is also a matching of n edges in the union graph: the
graph whose edges are the pairs of all relations.  When that graph's
largest matching has fewer than n edges, no rainbow matching exists.  The
converse fails, so a larger matching proves nothing.  The certificate
shares no code with ``exact_solve``: networkx's blossom algorithm finds the
largest matching.  networkx is a test dependency only; the package never
imports it.
"""

from __future__ import annotations

import itertools

import networkx as nx

from grinblat.core import Instance


def union_matching_size(inst: Instance) -> int:
    """The number of edges of a maximum matching of inst's union graph."""
    g = nx.Graph()
    for p in inst.relations:
        for cl in p.classes:
            g.add_edges_from(itertools.combinations(cl, 2))
    return len(nx.max_weight_matching(g, maxcardinality=True))
