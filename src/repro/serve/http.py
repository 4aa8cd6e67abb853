"""A small, stdlib-only asyncio HTTP/1.1 front-end for the service.

The dependency rule for this repo is "nothing the container doesn't
already have", so instead of a web framework this is a deliberately
minimal HTTP implementation over ``asyncio`` streams: parse one request,
route it, answer it, close the connection. Every response carries
``Connection: close`` — connection reuse buys nothing for a campaign
API whose cheap calls are dwarfed by its expensive ones.

Endpoints::

    GET  /                        self-contained HTML status page
    GET  /metrics                 Prometheus text-format metrics
    POST /v1/jobs                 accept a job spec, returns 202 + job id
    GET  /v1/jobs                 job index (most recent first)
    GET  /v1/jobs/<id>            job status
    GET  /v1/jobs/<id>/events     chunked NDJSON progress stream
    GET  /v1/jobs/<id>/artifact   the job's artifact bytes
    GET  /v1/stats                scheduler / job / store counters
    GET  /v1/version              version tags + simulation kernels

The events stream uses chunked transfer-encoding and follows the job
live: every event already logged is replayed first, then new ones are
forwarded until the job reaches a terminal state.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

__all__ = ["HttpFrontend", "MAX_BODY_BYTES"]

#: Largest request body accepted (job specs are small JSON objects).
MAX_BODY_BYTES = 1 << 20
_MAX_HEADER_BYTES = 1 << 16

#: Seconds between liveness polls of a streamed job's event log.
_EVENT_POLL_SECONDS = 0.1

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

_CONTENT_TYPES = {
    ".json": "application/json",
    ".csv": "text/csv; charset=utf-8",
}


class _BadRequest(Exception):
    """Malformed HTTP or JSON from the client (HTTP 400/413)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class HttpFrontend:
    """Routes HTTP requests onto a :class:`~repro.serve.app.ServeApp`."""

    def __init__(self, app) -> None:
        self.app = app
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self, host: str, port: int) -> Tuple[str, int]:
        """Listen on ``host:port`` (0 = ephemeral); returns the bound pair."""
        self._server = await asyncio.start_server(
            self._handle_client, host=host, port=port
        )
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # ------------------------------------------------------------------
    # Connection handling.
    # ------------------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, query, body = await self._read_request(reader)
            except _BadRequest as exc:
                await self._send_json(
                    writer, exc.status, {"error": str(exc)}
                )
                return
            try:
                await self._route(method, path, query, body, writer)
            except _BadRequest as exc:
                await self._send_json(writer, exc.status, {"error": str(exc)})
            except (ConnectionError, asyncio.CancelledError):
                raise
            except Exception as exc:  # noqa: BLE001 — a 500, not a crash
                await self._send_json(
                    writer,
                    500,
                    {"error": f"{type(exc).__name__}: {exc}"},
                )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        try:
            header_blob = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError as exc:
            raise _BadRequest(413, "headers too large") from exc
        if len(header_blob) > _MAX_HEADER_BYTES:
            raise _BadRequest(413, "headers too large")
        head, *header_lines = header_blob.decode("latin-1").split("\r\n")
        parts = head.split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _BadRequest(400, f"malformed request line: {head!r}")
        method, target, __ = parts
        split = urlsplit(target)
        query = {
            name: values[-1]
            for name, values in parse_qs(split.query).items()
        }
        headers: Dict[str, str] = {}
        for line in header_lines:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        length = headers.get("content-length", "0")
        try:
            body_length = int(length)
        except ValueError as exc:
            raise _BadRequest(400, f"bad Content-Length: {length!r}") from exc
        if body_length < 0:
            raise _BadRequest(400, f"bad Content-Length: {length!r}")
        if body_length > MAX_BODY_BYTES:
            raise _BadRequest(413, "request body too large")
        body = await reader.readexactly(body_length) if body_length else b""
        return method, split.path, query, body

    # ------------------------------------------------------------------
    # Routing.
    # ------------------------------------------------------------------

    async def _route(self, method, path, query, body, writer) -> None:
        segments = [segment for segment in path.split("/") if segment]
        if segments == [] and method == "GET":
            await self._send_raw(
                writer,
                200,
                self.app.status_html().encode("utf-8"),
                "text/html; charset=utf-8",
            )
            return
        if segments == ["metrics"] and method == "GET":
            await self._send_raw(
                writer,
                200,
                self.app.metrics_text().encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
            )
            return
        if segments[:1] != ["v1"]:
            raise _BadRequest(404, f"unknown path {path!r}")
        rest = segments[1:]
        if rest == ["version"] and method == "GET":
            await self._send_json(writer, 200, self.app.version_payload())
        elif rest == ["stats"] and method == "GET":
            await self._send_json(writer, 200, self.app.stats_payload())
        elif rest == ["jobs"]:
            if method == "POST":
                await self._post_job(body, writer)
            elif method == "GET":
                await self._send_json(writer, 200, self.app.jobs_index())
            else:
                raise _BadRequest(405, f"{method} not allowed on /v1/jobs")
        elif len(rest) >= 2 and rest[0] == "jobs" and method == "GET":
            job = self.app.jobs.jobs.get(rest[1])
            if job is None:
                raise _BadRequest(404, f"no such job {rest[1]!r}")
            if len(rest) == 2:
                await self._send_json(writer, 200, job.summary())
            elif rest[2:] == ["events"]:
                await self._stream_events(job, writer)
            elif rest[2:] == ["artifact"]:
                await self._send_artifact(job, query, writer)
            else:
                raise _BadRequest(404, f"unknown path {path!r}")
        else:
            raise _BadRequest(404, f"unknown path {path!r}")

    async def _post_job(self, body: bytes, writer) -> None:
        from repro.serve.jobs import JobError
        from repro.serve.scheduler import SchedulerShutdown

        try:
            payload = json.loads(body.decode("utf-8")) if body else None
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _BadRequest(400, f"body is not valid JSON: {exc}") from exc
        try:
            job = self.app.jobs.submit(payload)
        except JobError as exc:
            raise _BadRequest(400, str(exc)) from exc
        except SchedulerShutdown as exc:
            await self._send_json(writer, 503, {"error": str(exc)})
            return
        await self._send_json(
            writer, 202, {"job": job.id, "state": job.state}
        )

    async def _send_artifact(self, job, query, writer) -> None:
        if not job.artifacts:
            if job.terminal:
                raise _BadRequest(404, f"job {job.id} has no artifact")
            raise _BadRequest(
                404, f"job {job.id} is {job.state}; artifact not ready"
            )
        name = query.get("name")
        if name is None:
            # Primary artifact: frontier.json for explorations, the only
            # artifact otherwise; deterministic pick either way.
            name = (
                "frontier.json"
                if "frontier.json" in job.artifacts
                else sorted(job.artifacts)[0]
            )
        path = job.artifacts.get(name)
        if path is None:
            raise _BadRequest(
                404,
                f"no artifact {name!r}; available: {sorted(job.artifacts)}",
            )
        data = await asyncio.get_running_loop().run_in_executor(
            None, path.read_bytes
        )
        content_type = _CONTENT_TYPES.get(path.suffix, "application/octet-stream")
        await self._send_raw(writer, 200, data, content_type)

    async def _stream_events(self, job, writer) -> None:
        headers = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(headers.encode("latin-1"))
        await writer.drain()
        sent = 0
        while True:
            while sent < len(job.events):
                line = json.dumps(job.events[sent], sort_keys=True) + "\n"
                data = line.encode("utf-8")
                writer.write(f"{len(data):x}\r\n".encode("latin-1"))
                writer.write(data + b"\r\n")
                sent += 1
            await writer.drain()
            if job.terminal and sent == len(job.events):
                break
            await asyncio.sleep(_EVENT_POLL_SECONDS)
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    # ------------------------------------------------------------------
    # Responses.
    # ------------------------------------------------------------------

    async def _send_json(self, writer, status: int, payload) -> None:
        data = (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode(
            "utf-8"
        )
        await self._send_raw(writer, status, data, "application/json")

    @staticmethod
    async def _send_raw(writer, status: int, data: bytes, content_type: str) -> None:
        reason = _STATUS_TEXT.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(data)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + data)
        await writer.drain()
