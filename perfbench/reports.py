"""Checks, digests and work counts of the JSON reports the CLI writes."""

import hashlib
import json

RESIDUAL_LIMIT = 1e-9


def _fields(node, path="results"):
    """Yield (path, key, value) for every field nested under ``node``."""
    if isinstance(node, dict):
        for key, val in node.items():
            yield f"{path}.{key}", key, val
            yield from _fields(val, f"{path}.{key}")
    elif isinstance(node, list):
        for n, val in enumerate(node):
            yield from _fields(val, f"{path}[{n}]")


def _is_number(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def problems(report: dict) -> list:
    """Reasons a report fails: any ``pass`` that is not true, or any numeric
    field whose name ends in ``residual`` at or above ``RESIDUAL_LIMIT``
    (NaN included)."""
    found = []
    for path, key, val in _fields(report.get("results")):
        if key == "pass" and val is not True:
            found.append(f"{path} is {val!r}")
        elif key.endswith("residual") and _is_number(val) \
                and not val < RESIDUAL_LIMIT:
            found.append(f"{path} = {val!r}")
    return found


def max_residual(report: dict) -> float:
    """Largest ``max_residual`` anywhere in the report's results (0 if none)."""
    return max((val for _, key, val in _fields(report.get("results"))
                if key == "max_residual" and _is_number(val)), default=0.0)


def body_digest(report: dict) -> str:
    """sha256 of the report with its ``meta`` field (timestamps) removed."""
    body = {k: v for k, v in report.items() if k != "meta"}
    text = json.dumps(body, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def work_units(report: dict) -> int:
    """Random inputs checked (verify, norm, jn and bound trials) or grid
    samples averaged (mc-demo) behind one report."""
    results = report["results"]
    command = report["config"]["command"]
    if command == "verify-decomp":
        return sum(case["trials"] for case in results["cases"])
    if command in ("norm-study", "bound-study"):
        return sum(rep["trials"] for rep in results["reports"])
    if command == "jn-check":
        return report["config"]["trials"]
    if command == "mc-demo":
        return results["stats"]["used"]
    return 0
