"""Start the synthesis server (``repro serve``) with the benchmark's
count-only budgets (``workloads.budget_factory``), which the CLI cannot
express (it has no program budget), and the default session cache.
Prints ``serving on HOST:PORT`` once the socket listens, like the CLI,
and serves until a ``shutdown`` request.

    PYTHONPATH=src:repobench python3 repobench/serve_main.py --journal J.jsonl
"""

from __future__ import annotations

import argparse
import asyncio
import os
import threading
import time

from repro.serve.server import ServerConfig, run_server

from workloads import SAFETY_S, budget_factory


def _exit_with_parent() -> None:
    """Stop when the process that started the server is gone, so a
    killed benchmark run leaves no server behind."""
    parent = os.getppid()
    while os.getppid() == parent:
        time.sleep(0.5)
    os._exit(1)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--journal", required=True)
    args = parser.parse_args()
    threading.Thread(target=_exit_with_parent, daemon=True).start()
    config = ServerConfig(
        port=0,
        max_workers=2,
        journal_path=args.journal,
        default_timeout_s=SAFETY_S,
        budget_factory=budget_factory(),
    )
    asyncio.run(
        run_server(
            config,
            ready=lambda host, port: print(f"serving on {host}:{port}", flush=True),
        )
    )


if __name__ == "__main__":
    main()
