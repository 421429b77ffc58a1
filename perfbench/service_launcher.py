"""Start the service with the layer wrappers installed (traced runs).

``python3 perfbench/service_launcher.py --trace-out FILE <service args>``
installs the same wrappers as a traced experiment lane, with each span
tagged by the request trace id bound where it runs, then calls
``repro.service.__main__.main`` with the remaining arguments. When the
service stops (SIGINT or SIGTERM), the spans are written to FILE.
"""

from __future__ import annotations

import argparse

import tracing


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True)
    args, service_args = parser.parse_known_args()

    from repro import obs
    from repro.service.__main__ import main as service_main

    tracer = tracing.Tracer(current_trace=obs.current_trace_id)
    tracing.install(tracer)
    try:
        return service_main(service_args)
    finally:
        tracer.dump(args.trace_out)


if __name__ == "__main__":
    raise SystemExit(main())
