"""Child-process probes started by run.py, each in a fresh interpreter.

    probe.py setup <workload>          run one workload's set-up, print nothing
    probe.py imports                   print incremental import times as JSON
    probe.py cli <spans.json> <argv>   run glfock.cli.main(argv) traced, write spans
"""

import json
import sys
import time


def imports() -> dict:
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    t1 = time.perf_counter()
    import scipy.special  # noqa: F401
    t2 = time.perf_counter()
    import scipy.integrate  # noqa: F401
    t3 = time.perf_counter()
    import glfock.cli  # noqa: F401
    t4 = time.perf_counter()
    return {"import.numpy_s": t1 - t0, "import.scipy_special_s": t2 - t1,
            "import.scipy_integrate_s": t3 - t2, "import.glfock_s": t4 - t3}


def traced_cli(spans_path: str, argv: list[str]) -> int:
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    import glfock.cli

    try:
        return glfock.cli.main(argv)
    finally:
        tracer.dump(spans_path)


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        import workloads

        workloads.WORKLOADS[argv[1]][0]()
        return 0
    if mode == "imports":
        print(json.dumps(imports()))
        return 0
    if mode == "cli":
        return traced_cli(argv[1], argv[2:])
    raise SystemExit(f"unknown probe mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
