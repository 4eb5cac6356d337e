"""Bipartite qudit states under local dephasing noise.

Evolution through entrywise sector-dephasing masks, entanglement
classification through partial-transpose and realignment witnesses, a
constructive separability certificate, distillability probes on local
projections, and the closed-form state family that ties them together.
The cli module exposes the pipeline as a batch command line tool. Each
name is imported from its own module, for example
`from dephaselab.criteria import classify`.
"""
