"""Set-up probe: import bmu_lab and parse and validate every workload config.

run.py starts this in a fresh interpreter and times it until "ready".
"""

import workloads

workloads.load_all_configs()
print("ready", flush=True)
