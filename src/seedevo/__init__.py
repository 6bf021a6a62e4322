"""Evolutionary orchestration over seeded agent runs.

A population of independent runs evolves per iteration: each slot is
seeded with a task operator and inherited parent archives, executed in
isolation, and admitted through a 1:1 tournament against the slot's
previous elite.  Operator selection adapts online via bounded
exponential weights over observed improvements.

The package root exports nothing: import each name from the module
that defines it.
"""
