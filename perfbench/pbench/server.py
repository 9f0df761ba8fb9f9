"""Traced sweep server (``python -m pbench.server``).

Wraps the program's layers, then serves through ``repro.serve.make_server``
exactly as ``repro serve`` does.  Recording starts on ``SIGUSR1`` (so the
start-up and the client's ``/health`` polls stay out of the spans).  ``SIGTERM``
stops the server, which then writes its spans to ``--report``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--store", required=True)
    parser.add_argument("--report", required=True)
    args = parser.parse_args(argv)

    from .spans import Recorder, install_server_layers

    recorder = Recorder()
    install_server_layers(recorder)
    from repro.serve import make_server

    server = make_server(host="127.0.0.1", port=0, store_path=args.store)

    def start_recording(signum: int, frame: object) -> None:
        recorder.enabled = True

    def stop(signum: int, frame: object) -> None:
        # shutdown() waits for serve_forever, which runs on this thread.
        threading.Thread(target=server.shutdown).start()

    signal.signal(signal.SIGUSR1, start_recording)
    signal.signal(signal.SIGTERM, stop)
    host, port = server.server_address[:2]
    print(f"listening on http://{host}:{port}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
        with open(args.report, "w") as handle:
            json.dump(recorder.to_json(), handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
