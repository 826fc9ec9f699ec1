"""One benchmark run in a fresh process: import tfmbe, run one workload, report.

run.py starts this script once per run, as ``python3 worker.py SPEC``,
where SPEC is a JSON object with the keys ``src`` (the package's source
directory), ``workload``, ``size``, ``instance``, ``out_dir`` and
``trace`` (wrap the layer boundaries with the span tracer).  The last stdout line is a JSON object with
the process's monotonic timestamps of its first step and of the driver's
return, its peak resident memory and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main(argv):
    spec = json.loads(argv[1])
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    import numpy
    import scipy
    import tfmbe.adaptive
    import tfmbe.harness

    if not os.path.abspath(tfmbe.__file__).startswith(src + os.sep):
        raise SystemExit(f"tfmbe imported from {tfmbe.__file__}, not from {src}")
    from workloads import driver_call

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    # time of the first step: a one-shot wrapper that puts the step back
    first_step = []
    adaptive = tfmbe.adaptive
    step = adaptive.cn_sav_step

    def mark_first_step(*args, **kwargs):
        first_step.append(time.monotonic())
        adaptive.cn_sav_step = step
        return step(*args, **kwargs)

    adaptive.cn_sav_step = mark_first_step

    name, args, kwargs = driver_call(spec["workload"], spec["size"],
                                     spec["instance"], out_dir=spec["out_dir"],
                                     save_field=True)
    report = getattr(tfmbe.harness, name)(*args, **kwargs)
    t_done = time.monotonic()

    result = {
        "t_first_step": first_step[0],
        "t_done": t_done,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if tracer is not None:
        result["layers"] = tracer.summary(report.n_accepted)
        result["untraced_names"] = tracer.missing
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
