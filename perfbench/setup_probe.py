"""Set-up probe: import standbymmap, load and validate the bundled model,
then print the monotonic clock, the time the speed probes took meanwhile
and the speed factor they give (see ``speed.py``).  ``run.py`` starts this
script several times and takes, for each start, the time from just before
it launched the process to the printed clock reading, less the probes'
time: the start-up cost every CLI call pays.
Usage: ``python3 perfbench/setup_probe.py <path to src>``.
"""

import sys
import time

from speed import Sampler

with Sampler() as sampler:
    sys.path.insert(0, sys.argv[1])
    from standbymmap.cli import bundled_model_path, load_model

    load_model(bundled_model_path())
    end = time.monotonic()
print(repr(end), repr(sampler.spent_wall), repr(sampler.factor))
