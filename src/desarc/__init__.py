"""desarc: exact projective geometry over GF(q).

Constructs and verifies simplexes in perspective in every dimension: arc
sections, the vertex/axis correspondence, lifting back to arcs, configuration
self-replication, and exhaustive desk-scale enumeration.

The package holds only its version; import from the submodules (`field`,
`projlin`, `arcs`, `desargues`, `configuration`, `enumeration`, `io`,
`cli`), so each process compiles only the modules it uses.
"""

__version__ = "0.1.0"
