"""Time one fresh set-up, in its own interpreter so imports are cold.

    python3 perfbench/setup_probe.py <workload> <input> <output-root>

Set-up is what `seedevo run` or `seedevo compress` does before its
first operation: import the package, load and validate the config,
build the executor and create the output root.  Prints the seconds.
"""

import os
import sys
import time

start = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import seedevo.cli  # noqa: E402  the module both commands start from

workload, source, output = sys.argv[1:4]
if workload.startswith("evolve"):
    from seedevo.config import load_config
    from seedevo.engine import EvolutionEngine
    from seedevo.executors import build_executor

    config = load_config(config_file=source, env={})
    EvolutionEngine.start(config, build_executor(config), output)
else:
    from seedevo import compression

    compression.BudgetConfig(trigger_tokens=100_000, target_tokens=20_000)
    compression.head_fraction_summarizer(0.1)
    os.makedirs(output)
print(repr(time.perf_counter() - start))
