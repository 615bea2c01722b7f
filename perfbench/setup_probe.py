"""Set-up probe: ``python3 perfbench/setup_probe.py WORKLOAD SEED``.

Builds the in-process workload's system (EDB loaded, program compiled),
answers a first query and prints ``ready``.  The benchmark times this
process from spawn to that line.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

if __name__ == "__main__":
    workload, seed = sys.argv[1], int(sys.argv[2])
    if workload == "nail-closure":
        from w_closure import ready
    else:
        from w_bom import ready
    ready(seed)
    print("ready", flush=True)
