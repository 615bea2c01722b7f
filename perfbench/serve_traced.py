"""Launcher for the traced server: ``python3 perfbench/serve_traced.py serve ...``.

Takes the arguments of ``gluenail`` and runs its ``serve`` entry in this
process, after arranging for span recording:

* every request's spans carry the id ``<session>:<request id>``
  (notification pushes, on their own thread, carry none);
* standard input takes control lines -- ``on`` installs the span
  wrappers, ``off`` removes them, ``dump PATH`` writes the kept spans --
  and each is answered on standard output with one JSON line: the span
  aggregates so far, plus the server's cost counters (``counter.*``) and
  columnar kernel cache hits and misses (``col.hits``, ``col.misses``)
  under ``counts``.
"""

import json
import os
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from spans import SpanRecorder  # noqa: E402


def main() -> int:
    import repro.server.protocol as protocol
    import repro.server.server as server_module
    from repro.core import cli

    recorder = SpanRecorder()
    servers = []

    server_init = server_module.GlueNailServer.__init__

    def capture_server(self, *args, **kwargs):
        server_init(self, *args, **kwargs)
        servers.append(self)

    server_module.GlueNailServer.__init__ = capture_server

    # Spans carry "<session>:<request id>": the session is known per
    # connection thread from its creation, the id once the line is decoded.
    connection = threading.local()
    session_init = server_module.Session.__init__

    def named_session(self, *args, **kwargs):
        session_init(self, *args, **kwargs)
        connection.session = self.name

    server_module.Session.__init__ = named_session

    decode = protocol.decode

    def tagged_decode(line):
        request = decode(line)
        request_id = request.get("id") if isinstance(request, dict) else None
        recorder.set_request(f"{getattr(connection, 'session', None)}:{request_id}")
        return request

    protocol.decode = tagged_decode
    server_module.decode = tagged_decode

    def state() -> dict:
        snap = recorder.snapshot()
        if servers:
            db = servers[0].db
            for name, value in db.counters.aggregate().snapshot().items():
                snap["counts"][f"counter.{name}"] = value
            snap["counts"]["col.hits"] = db.columnar.hits
            snap["counts"]["col.misses"] = db.columnar.misses
        return snap

    def control() -> None:
        for line in sys.stdin:
            command = line.strip()
            if command == "on":
                recorder.install()
            elif command == "off":
                recorder.uninstall()
            elif command.startswith("dump "):
                recorder.dump(command[5:])
            sys.stdout.write(json.dumps(state()) + "\n")
            sys.stdout.flush()

    threading.Thread(target=control, name="perfbench-control", daemon=True).start()
    return cli.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
