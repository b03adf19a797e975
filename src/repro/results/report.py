"""Static HTML report generation from a results store.

The reporting half of the experiment service, modelled on fuzzbench's
``analysis/generate_report.py`` / ``plotting.py`` / ``rendering.py``: the
report is generated **offline from the store** — it never runs anything —
and is fully self-contained (inline CSS and inline SVG; no JavaScript, no
external assets), so CI can upload the output directory as a build artifact
and any browser can open it.

Sections, each produced only when the store holds matching data:

* per-kind **run history** — provenance table per recorded kind, with each
  run's full ``to_json()`` payload embedded **verbatim** in a
  ``<script type="application/json">`` island (byte-identical to what the
  run serialised; pinned by ``tests/test_results.py``);
* **benchmark trajectory** — one inline-SVG series per ingested benchmark
  over recording time/commits (mean wall clock, or speedup where recorded);
* **Pareto frontier** scatter for the latest dse and plan runs;
* a **run-vs-run comparison** (``--compare A B``) with Mann-Whitney U and
  seeded bootstrap confidence intervals (:mod:`repro.results.stats`).

Determinism: given a fixed store, the generated HTML is byte-identical
across invocations — no generation timestamps, no unsorted iteration.
"""

from __future__ import annotations

import html
import os
from string import Template
from typing import Dict, List, Optional, Sequence, Tuple

from .stats import compare_samples
from .store import ResultStore, StoreError, StoredRun

__all__ = ["generate_report", "compare_runs", "DEFAULT_COMPARE_METRICS"]

_TEMPLATE_PATH = os.path.join(os.path.dirname(__file__), "templates", "report.html")

#: The metric ``--compare`` tests when none is named, chosen per run kind.
DEFAULT_COMPARE_METRICS: Dict[str, str] = {
    "dse": "latency_ms",
    "plan": "worst_p99_latency_ms",
    "serve": "p99_latency_ms",
    "experiments": "latency_ms",
}


# ---------------------------------------------------------------------------
# HTML building blocks
# ---------------------------------------------------------------------------
def _format_cell(value) -> str:
    if value is None:
        return "—"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _html_table(rows: Sequence[Dict], caption: str = "") -> str:
    """An escaped HTML table over dict rows (union of keys, first-seen order)."""
    if not rows:
        return "<p class='meta'>(empty)</p>"
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    parts = ["<table>"]
    if caption:
        parts.append(f"<caption>{html.escape(caption)}</caption>")
    parts.append(
        "<tr>" + "".join(f"<th>{html.escape(str(col))}</th>" for col in columns) + "</tr>"
    )
    for row in rows:
        parts.append(
            "<tr>"
            + "".join(
                f"<td>{html.escape(_format_cell(row.get(col)))}</td>" for col in columns
            )
            + "</tr>"
        )
    parts.append("</table>")
    return "\n".join(parts)


def _payload_island(run: StoredRun) -> str:
    """The run's payload embedded byte-for-byte inside a JSON script island.

    JSON never contains a raw ``</script>`` unless a string value spells it
    out; in that (pathological) case fall back to an escaped ``<pre>`` so
    the document stays well-formed — at the cost of byte identity for that
    one run.
    """
    if "</script" in run.payload.lower():
        return f"<details><summary>payload</summary><pre>{html.escape(run.payload)}</pre></details>"
    return (
        f'<script type="application/json" class="run-payload" '
        f'id="payload-{html.escape(run.run_id)}">\n{run.payload}\n</script>'
    )


# ---------------------------------------------------------------------------
# Inline SVG charts (no plotting dependency)
# ---------------------------------------------------------------------------
_CHART_W, _CHART_H, _MARGIN = 640, 220, 42


def _scale(values: Sequence[float], out_low: float, out_high: float):
    low, high = min(values), max(values)
    span = (high - low) or 1.0

    def to_pixels(value: float) -> float:
        return out_low + (value - low) / span * (out_high - out_low)

    return to_pixels, low, high


def _svg_header(title: str) -> List[str]:
    return [
        f'<svg width="{_CHART_W}" height="{_CHART_H}" viewBox="0 0 {_CHART_W} {_CHART_H}" '
        f'xmlns="http://www.w3.org/2000/svg" role="img" aria-label="{html.escape(title)}">',
        f'<text x="{_MARGIN}" y="16" font-size="12" fill="#2b3a67">{html.escape(title)}</text>',
    ]


def _svg_axes(y_low: float, y_high: float) -> List[str]:
    bottom = _CHART_H - _MARGIN
    return [
        f'<line x1="{_MARGIN}" y1="{bottom}" x2="{_CHART_W - 12}" y2="{bottom}" stroke="#8a90ad"/>',
        f'<line x1="{_MARGIN}" y1="24" x2="{_MARGIN}" y2="{bottom}" stroke="#8a90ad"/>',
        f'<text x="4" y="30" font-size="10" fill="#5c6080">{y_high:.4g}</text>',
        f'<text x="4" y="{bottom}" font-size="10" fill="#5c6080">{y_low:.4g}</text>',
    ]


def _svg_line_series(title: str, labels: Sequence[str], values: Sequence[float]) -> str:
    """One benchmark trajectory as an inline-SVG line chart."""
    bottom = _CHART_H - _MARGIN
    if len(values) == 1:
        xs = [(_MARGIN + _CHART_W - 12) / 2.0]
    else:
        step = (_CHART_W - 12 - _MARGIN) / (len(values) - 1)
        xs = [_MARGIN + i * step for i in range(len(values))]
    to_y, y_low, y_high = _scale(values, bottom, 24.0)
    parts = _svg_header(title) + _svg_axes(y_low, y_high)
    points = " ".join(f"{x:.1f},{to_y(v):.1f}" for x, v in zip(xs, values))
    if len(values) > 1:
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="#3b5bdb" stroke-width="1.5"/>'
        )
    for x, value, label in zip(xs, values, labels):
        parts.append(
            f'<circle cx="{x:.1f}" cy="{to_y(value):.1f}" r="3" fill="#3b5bdb">'
            f"<title>{html.escape(label)}: {value:.6g}</title></circle>"
        )
    parts.append("</svg>")
    return "\n".join(parts)


def _svg_scatter(
    title: str,
    points: Sequence[Tuple[float, float]],
    frontier: Sequence[bool],
    x_label: str,
    y_label: str,
) -> str:
    """A Pareto scatter: all points grey, the frontier highlighted."""
    bottom = _CHART_H - _MARGIN
    to_x, x_low, x_high = _scale([p[0] for p in points], float(_MARGIN), _CHART_W - 12.0)
    to_y, y_low, y_high = _scale([p[1] for p in points], bottom, 24.0)
    parts = _svg_header(title) + _svg_axes(y_low, y_high)
    parts.append(
        f'<text x="{_CHART_W - 12}" y="{bottom + 14}" font-size="10" fill="#5c6080" '
        f'text-anchor="end">{html.escape(x_label)}: {x_low:.4g} – {x_high:.4g}</text>'
    )
    parts.append(
        f'<text x="{_MARGIN}" y="{bottom + 14}" font-size="10" '
        f'fill="#5c6080">{html.escape(y_label)} ↑</text>'
    )
    for (x, y), on_frontier in zip(points, frontier):
        color = "#c92a2a" if on_frontier else "#b3b8cf"
        radius = 4 if on_frontier else 3
        parts.append(
            f'<circle cx="{to_x(x):.1f}" cy="{to_y(y):.1f}" r="{radius}" fill="{color}">'
            f"<title>{x_label}={x:.6g}, {y_label}={y:.6g}"
            f"{' (frontier)' if on_frontier else ''}</title></circle>"
        )
    parts.append("</svg>")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------
def _numeric_column(rows: List[Dict], metric: str) -> List[float]:
    values = []
    for row in rows:
        value = row.get(metric)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            values.append(float(value))
    return values


def _default_metric(run_a: StoredRun, run_b: StoredRun) -> str:
    preferred = DEFAULT_COMPARE_METRICS.get(run_a.kind)
    candidates = [preferred] if preferred else []
    if run_a.rows:
        candidates += list(run_a.rows[0].keys())
    for candidate in candidates:
        if candidate is None:
            continue
        if _numeric_column(run_a.rows, candidate) and _numeric_column(run_b.rows, candidate):
            return candidate
    raise StoreError(
        f"runs {run_a.run_id!r} and {run_b.run_id!r} share no numeric column "
        "to compare; pass --metric explicitly"
    )


def compare_runs(
    store: ResultStore,
    run_id_a: str,
    run_id_b: str,
    metric: Optional[str] = None,
    alpha: float = 0.05,
) -> Dict:
    """The run-vs-run verdict: Mann-Whitney U plus bootstrap CIs on one metric."""
    run_a = store.load_run(run_id_a)
    run_b = store.load_run(run_id_b)
    if metric is None:
        metric = _default_metric(run_a, run_b)
    values_a = _numeric_column(run_a.rows, metric)
    values_b = _numeric_column(run_b.rows, metric)
    if not values_a or not values_b:
        raise StoreError(
            f"metric {metric!r} has no numeric values in "
            f"{run_id_a if not values_a else run_id_b!r}"
        )
    verdict = compare_samples(values_a, values_b, alpha=alpha)
    verdict.update(
        run_a=run_id_a,
        run_b=run_id_b,
        kind_a=run_a.kind,
        kind_b=run_b.kind,
        metric=metric,
    )
    return verdict


def render_comparison_text(verdict: Dict) -> str:
    """The one-paragraph verdict ``repro report --compare`` prints."""
    a, b = verdict["a"], verdict["b"]
    lines = [
        f"comparing {verdict['run_a']} vs {verdict['run_b']} on {verdict['metric']!r}:",
        f"  {verdict['run_a']}: mean {a['mean']:.6g} "
        f"[{a['ci_low']:.6g}, {a['ci_high']:.6g}] over {verdict['n_a']} rows",
        f"  {verdict['run_b']}: mean {b['mean']:.6g} "
        f"[{b['ci_low']:.6g}, {b['ci_high']:.6g}] over {verdict['n_b']} rows",
    ]
    if verdict["significant"] is None:
        lines.append("  too few rows for a Mann-Whitney U test (need >= 2 per side)")
    else:
        state = "SIGNIFICANT" if verdict["significant"] else "not significant"
        lines.append(
            f"  Mann-Whitney U={verdict['u_statistic']:.6g}, "
            f"p={verdict['p_value']:.4g} → {state} at alpha={verdict['alpha']}"
        )
    return "\n".join(lines)


def _comparison_section(verdict: Dict) -> str:
    a, b = verdict["a"], verdict["b"]
    if verdict["significant"] is None:
        test_html = "<p class='warn'>too few rows for a Mann-Whitney U test</p>"
    else:
        css = "fail" if verdict["significant"] else "ok"
        state = "significant" if verdict["significant"] else "not significant"
        test_html = (
            f"<p>Mann-Whitney U = {verdict['u_statistic']:.6g}, "
            f"p = {verdict['p_value']:.4g} → <span class='{css}'>{state}</span> "
            f"at α = {verdict['alpha']}</p>"
        )
    table = _html_table(
        [
            {
                "run": verdict["run_a"],
                "rows": verdict["n_a"],
                "mean": a["mean"],
                "ci_low": a["ci_low"],
                "ci_high": a["ci_high"],
            },
            {
                "run": verdict["run_b"],
                "rows": verdict["n_b"],
                "mean": b["mean"],
                "ci_low": b["ci_low"],
                "ci_high": b["ci_high"],
            },
        ]
    )
    return (
        f"<h2>Comparison: {html.escape(verdict['run_a'])} vs "
        f"{html.escape(verdict['run_b'])}</h2>"
        f"<div class='verdict'><p>metric <code>{html.escape(verdict['metric'])}</code>, "
        f"95% bootstrap confidence intervals (seeded)</p>{table}{test_html}</div>"
    )


# ---------------------------------------------------------------------------
# Sections
# ---------------------------------------------------------------------------
def _run_history_section(store: ResultStore) -> str:
    parts: List[str] = []
    for kind in store.kinds():
        runs = store.runs(kind)
        parts.append(f"<h2>Run history: {html.escape(kind)} ({len(runs)} runs)</h2>")
        parts.append(_html_table([run.meta_row() for run in runs]))
        for run in runs:
            parts.append(_payload_island(run))
    return "\n".join(parts)


def _pareto_sections(store: ResultStore) -> str:
    from ..dse.pareto import pareto_frontier

    axes = {
        "dse": ("latency_ms", "power_w"),
        "plan": ("replica_seconds", "worst_p99_latency_ms"),
    }
    parts: List[str] = []
    for kind, (x_key, y_key) in axes.items():
        run_ids = store.run_ids(kind)
        if not run_ids:
            continue
        run = store.load_run(run_ids[-1])
        rows = [
            row
            for row in run.rows
            if isinstance(row.get(x_key), (int, float))
            and isinstance(row.get(y_key), (int, float))
        ]
        if len(rows) < 2:
            continue
        frontier_rows = pareto_frontier(rows, (x_key, y_key))
        frontier_ids = {id(row) for row in frontier_rows}
        parts.append(f"<h2>Pareto frontier: latest {html.escape(kind)} run "
                     f"({html.escape(run.run_id)})</h2>")
        parts.append(
            _svg_scatter(
                f"{kind}: {y_key} vs {x_key} ({len(frontier_rows)} of "
                f"{len(rows)} points on the frontier)",
                [(float(row[x_key]), float(row[y_key])) for row in rows],
                [id(row) in frontier_ids for row in rows],
                x_key,
                y_key,
            )
        )
    return "\n".join(parts)


def _benchmark_section(store: ResultStore) -> str:
    names = store.benchmark_names()
    if not names:
        return ""
    parts = [f"<h2>Benchmark trajectory ({len(names)} benchmarks)</h2>"]
    for name in names:
        trajectory = store.benchmark_trajectory(name)
        parts.append(f"<h3>{html.escape(name)}</h3>")
        # Speedup-convention benchmarks chart the hardware-independent ratio;
        # the rest chart mean wall clock.
        speedups = [point["speedup"] for point in trajectory]
        if all(s is not None for s in speedups):
            values, unit = [float(s) for s in speedups], "speedup (x)"
        else:
            values, unit = [float(p["mean_s"]) for p in trajectory], "mean (s)"
        labels = [
            f"{(p['commit_sha'] or '?')[:10]} @ {p['recorded_utc']}" for p in trajectory
        ]
        parts.append(_svg_line_series(f"{unit} over {len(values)} recordings", labels, values))
        parts.append(
            _html_table(
                [
                    {
                        "recorded_utc": p["recorded_utc"],
                        "commit": (p["commit_sha"] or "?")[:10],
                        "mean_s": p["mean_s"],
                        "stddev_s": p["stddev_s"],
                        "speedup": p["speedup"],
                        "cpus": p["cpus"],
                        "machine": p["machine"],
                    }
                    for p in trajectory
                ]
            )
        )
    return "\n".join(parts)


def _overview_section(store: ResultStore) -> str:
    rows = [
        {"kind": kind, "runs": len(store.run_ids(kind))} for kind in store.kinds()
    ]
    benches = store.benchmark_names()
    if benches:
        rows.append({"kind": "(benchmarks)", "runs": len(benches)})
    if not rows:
        return "<p class='warn'>the store holds no runs yet — record one with --record</p>"
    return "<h2>Overview</h2>\n" + _html_table(rows)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def generate_report(
    store: ResultStore,
    out_dir: str,
    compare: Optional[Tuple[str, str]] = None,
    metric: Optional[str] = None,
    alpha: float = 0.05,
) -> str:
    """Write ``out_dir/index.html`` from the store; returns the file path.

    ``compare`` names two recorded run ids; their statistical comparison is
    appended as a section.  Unknown run ids raise :class:`StoreError`.
    """
    sections = [
        _overview_section(store),
        _run_history_section(store),
        _pareto_sections(store),
        _benchmark_section(store),
    ]
    if compare is not None:
        verdict = compare_runs(store, compare[0], compare[1], metric=metric, alpha=alpha)
        sections.append(_comparison_section(verdict))
    with open(_TEMPLATE_PATH) as handle:
        template = Template(handle.read())
    total_runs = len(store.run_ids())
    document = template.substitute(
        title="repro results report",
        subtitle=(
            f"{total_runs} recorded runs · {len(store.benchmark_names())} benchmark "
            f"trajectories · generated offline from "
            f"{html.escape(os.path.basename(store.path))}"
        ),
        body="\n".join(section for section in sections if section),
    )
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, "index.html")
    with open(out_path, "w") as handle:
        handle.write(document)
    return out_path


def payloads_in_report(html_text: str) -> Dict[str, str]:
    """Extract the verbatim payload islands back out of a generated report.

    The inverse of :func:`_payload_island` for the normal (script-island)
    case — used by tests and CI smoke checks to assert byte identity between
    the report and the recorded runs.
    """
    payloads: Dict[str, str] = {}
    marker = '<script type="application/json" class="run-payload" id="payload-'
    start = 0
    while True:
        begin = html_text.find(marker, start)
        if begin == -1:
            return payloads
        id_end = html_text.index('">', begin)
        run_id = html_text[begin + len(marker) : id_end]
        body_start = id_end + len('">\n')
        body_end = html_text.index("\n</script>", body_start)
        payloads[run_id] = html_text[body_start:body_end]
        start = body_end
