#include "store/dashboard.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "campaign/allocator.hpp"
#include "store/query.hpp"
#include "util/json.hpp"

namespace pssp::store {

namespace {

void append_hex16_string(std::string& out, const char* key,
                         std::uint64_t value, bool comma = true) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    util::append_kv(out, key, std::string{buf}, comma);
}

// Per-cell CI half-width after each adaptive round: the convergence
// series. Round provenance comes straight off the block rows; tallies are
// re-merged cumulatively, so the curve is exact, not sampled.
struct convergence {
    std::vector<std::uint64_t> rounds;
    // One row per charted cell: name + one half-width per round (negative
    // = cell not yet active that round, emitted as JSON null).
    std::vector<std::pair<std::string, std::vector<double>>> series;
    std::uint64_t folded = 0;  // cells beyond the 8-series cap
};

convergence compute_convergence(const store_data& data) {
    convergence out;
    const auto rows = dedup_blocks(data);
    const auto ids = campaign::cells_for(data.meta.spec);

    std::map<std::uint64_t, std::vector<const block_row*>> by_round;
    for (const auto& r : rows)
        if (r.round >= 1) by_round[r.round].push_back(&r);
    if (by_round.size() < 2) return out;  // fixed run or single round: no curve

    std::map<std::uint64_t, campaign::cell_partial> merged;  // canonical order
    std::map<std::uint64_t, std::vector<double>> curves;
    for (const auto& [round, round_rows] : by_round) {
        out.rounds.push_back(round);
        for (const auto* r : round_rows) merged[r->block.cell].merge(r->block.partial);
        for (const auto& [cell, partial] : merged) {
            auto& curve = curves[cell];
            curve.resize(out.rounds.size() - 1, -1.0);  // null before first data
            curve.push_back(campaign::cell_ci_halfwidth(partial));
        }
    }
    for (auto& [cell, curve] : curves) curve.resize(out.rounds.size(), -1.0);

    // Widest final half-width first — the cells still converging lead.
    std::vector<std::uint64_t> order;
    for (const auto& [cell, curve] : curves) order.push_back(cell);
    std::sort(order.begin(), order.end(), [&](std::uint64_t a, std::uint64_t b) {
        const double fa = curves[a].back(), fb = curves[b].back();
        if (fa != fb) return fa > fb;
        return a < b;
    });
    const std::size_t keep = std::min<std::size_t>(order.size(), 8);
    out.folded = order.size() - keep;
    for (std::size_t i = 0; i < keep; ++i)
        out.series.emplace_back(cell_name(ids[order[i]]),
                                std::move(curves[order[i]]));
    return out;
}

std::string payload_json(const store_data& data) {
    const auto cells = aggregate_cells(data, query_filter{});
    const auto curves = compute_convergence(data);

    std::uint64_t trials = 0;
    for (const auto& c : cells) trials += c.report.trials;

    std::string out = "{\"meta\":{";
    append_hex16_string(out, "digest", data.meta.spec_digest);
    util::append_kv_bool(out, "complete", data.complete);
    util::append_kv_bool(out, "adaptive", data.meta.spec.adaptive);
    util::append_kv(out, "target_halfwidth",
                    data.meta.spec.target_ci_halfwidth);
    util::append_kv(out, "trials", trials);
    util::append_kv(out, "cells", static_cast<std::uint64_t>(cells.size()));
    util::append_kv(out, "rounds",
                    static_cast<std::uint64_t>(data.rounds.size()));
    util::append_kv_bool(out, "dropped_torn_tail", data.dropped_torn_tail,
                         /*comma=*/false);
    out += "},\"cells\":[";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto& c = cells[i];
        if (i > 0) out += ',';
        out += '{';
        util::append_kv(out, "name", cell_name(c.id));
        util::append_kv(out, "trials", c.report.trials);
        util::append_kv(out, "hijacks", c.report.hijacks);
        util::append_kv(out, "detections", c.report.detections);
        util::append_kv(out, "det_rate", c.report.detection_rate);
        util::append_kv(out, "det_lo", c.report.detection_ci.lo);
        util::append_kv(out, "det_hi", c.report.detection_ci.hi);
        util::append_kv(out, "hij_rate", c.report.hijack_rate);
        util::append_kv(out, "hij_lo", c.report.hijack_ci.lo);
        util::append_kv(out, "hij_hi", c.report.hijack_ci.hi);
        util::append_kv(out, "canary", c.report.canary_detections);
        util::append_kv(out, "crashes", c.report.other_crashes, /*comma=*/false);
        out += '}';
    }
    out += "],\"convergence\":{\"rounds\":[";
    for (std::size_t i = 0; i < curves.rounds.size(); ++i) {
        if (i > 0) out += ',';
        out += std::to_string(curves.rounds[i]);
    }
    out += "],\"series\":[";
    for (std::size_t i = 0; i < curves.series.size(); ++i) {
        if (i > 0) out += ',';
        out += '{';
        util::append_kv(out, "name", curves.series[i].first);
        out += "\"hw\":[";
        const auto& hw = curves.series[i].second;
        for (std::size_t j = 0; j < hw.size(); ++j) {
            if (j > 0) out += ',';
            if (hw[j] < 0.0)
                out += "null";
            else
                util::append_number(out, hw[j]);
        }
        out += "]}";
    }
    out += "],";
    util::append_kv(out, "folded", curves.folded, /*comma=*/false);
    out += "},\"timeline\":[";
    for (std::size_t i = 0; i < data.rounds.size(); ++i) {
        const auto& s = data.rounds[i].summary;
        if (i > 0) out += ',';
        out += '{';
        util::append_kv(out, "round", s.round);
        util::append_kv(out, "blocks", s.blocks);
        util::append_kv(out, "trials", s.trials);
        util::append_kv(out, "cum", s.cumulative_trials);
        util::append_kv(out, "max_hw", s.max_halfwidth);
        util::append_kv(out, "widest", s.widest_cell);
        util::append_kv(out, "wall", s.wall_seconds);
        util::append_kv(out, "shards",
                        static_cast<std::uint64_t>(s.shards.size()));
        util::append_kv(out, "retries", s.retries);
        util::append_kv(out, "requeued", s.requeued_blocks);
        util::append_kv(out, "timeouts", s.timeouts);
        util::append_kv_bool(out, "resumed", s.resumed, /*comma=*/false);
        out += '}';
    }
    out += "]}";
    return out;
}

// The validated reference palette (light/dark categorical slots, ink
// tokens, status colors). Dark mode is its own selected steps behind
// prefers-color-scheme — not an automatic flip of the light values.
constexpr const char* html_head = R"html(<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>Campaign observatory</title>
<style>
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb; --surface-2: #f0efec;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --text-muted: #898781;
  --gridline: #e1e0d9;
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
  --series-4: #eda100; --series-5: #e87ba4; --series-6: #008300;
  --series-7: #4a3aa7; --series-8: #e34948;
  --status-good: #0ca30c; --status-warning: #fab219;
  --status-serious: #ec835a; --status-critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19; --surface-2: #383835;
    --text-primary: #ffffff; --text-secondary: #c3c2b7; --text-muted: #898781;
    --gridline: #2c2c2a;
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
    --series-4: #c98500; --series-5: #d55181; --series-6: #008300;
    --series-7: #9085e9; --series-8: #e66767;
  }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --surface-1: #1a1a19; --surface-2: #383835;
  --text-primary: #ffffff; --text-secondary: #c3c2b7; --text-muted: #898781;
  --gridline: #2c2c2a;
  --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
  --series-4: #c98500; --series-5: #d55181; --series-6: #008300;
  --series-7: #9085e9; --series-8: #e66767;
}
.viz-root {
  background: var(--surface-1); color: var(--text-primary);
  font: 14px/1.45 system-ui, sans-serif;
  margin: 0; padding: 24px; min-height: 100vh; box-sizing: border-box;
}
.viz-root h1 { font-size: 20px; margin: 0 0 4px; }
.viz-root h2 { font-size: 15px; margin: 28px 0 10px; }
.viz-root .sub { color: var(--text-secondary); margin: 0 0 18px; }
.tiles { display: flex; gap: 12px; flex-wrap: wrap; margin: 16px 0; }
.tile { border: 1px solid var(--gridline); border-radius: 8px;
        padding: 10px 16px; min-width: 110px; }
.tile .v { font-size: 22px; font-weight: 600; }
.tile .k { color: var(--text-secondary); font-size: 12px; }
.chip { display: inline-flex; align-items: center; gap: 5px;
        border-radius: 999px; padding: 1px 9px; font-size: 12px;
        border: 1px solid var(--gridline); color: var(--text-secondary); }
.chip .dot { width: 8px; height: 8px; border-radius: 50%; }
table.data { border-collapse: collapse; width: 100%; max-width: 980px; }
table.data th { text-align: left; color: var(--text-secondary);
  font-weight: 500; font-size: 12px; border-bottom: 1px solid var(--gridline);
  padding: 5px 10px 5px 0; }
table.data td { border-bottom: 1px solid var(--gridline);
  padding: 5px 10px 5px 0; font-variant-numeric: tabular-nums; }
table.data td.num { text-align: right; }
table.data th.num { text-align: right; }
.ci { color: var(--text-muted); font-size: 12px; }
.legend { display: flex; gap: 16px; flex-wrap: wrap; margin: 8px 0;
          color: var(--text-secondary); font-size: 12px; }
.legend .item { display: inline-flex; gap: 6px; align-items: center; }
.legend .sw { width: 10px; height: 10px; border-radius: 3px; }
#chart-wrap { position: relative; max-width: 980px; }
#tooltip { position: absolute; pointer-events: none; display: none;
  background: var(--surface-1); border: 1px solid var(--gridline);
  border-radius: 6px; padding: 6px 10px; font-size: 12px;
  box-shadow: 0 2px 8px rgba(0,0,0,.12); white-space: nowrap; z-index: 2; }
#tooltip .row { display: flex; gap: 6px; align-items: center;
  color: var(--text-secondary); }
#tooltip .row b { color: var(--text-primary); font-weight: 600; }
.note { color: var(--text-muted); font-size: 12px; }
footer { margin-top: 28px; color: var(--text-muted); font-size: 12px; }
</style>
</head>
<body class="viz-root">
<h1>Campaign observatory</h1>
<p class="sub" id="subtitle"></p>
<div class="tiles" id="tiles"></div>
<h2>Detection rate by cell</h2>
<table class="data" id="cells-table"></table>
<h2>Convergence &mdash; CI half-width by round</h2>
<div class="legend" id="legend"></div>
<div id="chart-wrap"><div id="tooltip"></div><div id="chart"></div></div>
<p class="note" id="chart-note"></p>
<h2>Round &amp; recovery timeline</h2>
<table class="data" id="timeline-table"></table>
<footer id="footer"></footer>
<script id="pssp-data" type="application/json">)html";

constexpr const char* html_tail = R"html(</script>
<script>
"use strict";
const DATA = JSON.parse(document.getElementById("pssp-data").textContent);
const fmt = (x, d) => x.toFixed(d === undefined ? 4 : d);
const el = (tag, attrs, text) => {
  const e = document.createElement(tag);
  for (const k in attrs || {}) e.setAttribute(k, attrs[k]);
  if (text !== undefined) e.textContent = text;
  return e;
};
const svgEl = (tag, attrs) => {
  const e = document.createElementNS("http://www.w3.org/2000/svg", tag);
  for (const k in attrs || {}) e.setAttribute(k, attrs[k]);
  return e;
};
const seriesColor = i => `var(--series-${(i % 8) + 1})`;

// ---- header ----
{
  const m = DATA.meta;
  document.getElementById("subtitle").textContent =
    `campaign ${m.digest} · ` + (m.adaptive
      ? `adaptive, target half-width ${fmt(m.target_halfwidth, 3)}`
      : "fixed allocation");
  const tiles = document.getElementById("tiles");
  const tile = (v, k) => {
    const t = el("div", { class: "tile" });
    t.appendChild(el("div", { class: "v" }, v));
    t.appendChild(el("div", { class: "k" }, k));
    tiles.appendChild(t);
  };
  tile(DATA.meta.trials.toLocaleString("en-US"), "trials ingested");
  tile(String(DATA.meta.cells), "cells");
  tile(String(DATA.meta.rounds), "rounds recorded");
  const status = el("div", { class: "tile" });
  const chip = el("span", { class: "chip" });
  const dot = el("span", { class: "dot" });
  dot.style.background = m.complete ? "var(--status-good)"
                                    : "var(--status-warning)";
  chip.appendChild(dot);
  chip.appendChild(document.createTextNode(
      m.complete ? "✓ complete" : "○ running"));
  status.appendChild(chip);
  const health = el("div", { class: "k" },
    m.dropped_torn_tail ? "dropped torn tail" : "store intact");
  status.appendChild(health);
  tiles.appendChild(status);
}

// ---- detection table ----
{
  const table = document.getElementById("cells-table");
  const head = el("tr");
  [["cell"], ["trials", 1], ["detection rate", 1], ["95% CI", 1],
   ["hijack rate", 1], ["95% CI", 1], ["canary", 1], ["other crashes", 1]]
    .forEach(([h, num]) =>
      head.appendChild(el("th", num ? { class: "num" } : {}, h)));
  table.appendChild(head);
  for (const c of DATA.cells) {
    const tr = el("tr");
    tr.appendChild(el("td", {}, c.name));
    tr.appendChild(el("td", { class: "num" },
                      c.trials.toLocaleString("en-US")));
    tr.appendChild(el("td", { class: "num" }, fmt(c.det_rate)));
    tr.appendChild(el("td", { class: "num ci" },
                      `[${fmt(c.det_lo)}, ${fmt(c.det_hi)}]`));
    tr.appendChild(el("td", { class: "num" }, fmt(c.hij_rate)));
    tr.appendChild(el("td", { class: "num ci" },
                      `[${fmt(c.hij_lo)}, ${fmt(c.hij_hi)}]`));
    tr.appendChild(el("td", { class: "num" }, String(c.canary)));
    tr.appendChild(el("td", { class: "num" }, String(c.crashes)));
    table.appendChild(tr);
  }
}

// ---- convergence chart ----
{
  const conv = DATA.convergence;
  const note = document.getElementById("chart-note");
  if (conv.series.length === 0) {
    note.textContent =
      "No convergence curve: fixed allocation or fewer than two rounds.";
  } else {
    const W = 960, H = 300, L = 56, R = 16, T = 12, B = 30;
    const rounds = conv.rounds;
    let maxHW = DATA.meta.adaptive ? DATA.meta.target_halfwidth : 0;
    for (const s of conv.series)
      for (const v of s.hw) if (v !== null && v > maxHW) maxHW = v;
    if (maxHW <= 0) maxHW = 1;
    maxHW *= 1.08;
    const x = r => L + (W - L - R) *
      (rounds.length === 1 ? 0.5
        : (r - rounds[0]) / (rounds[rounds.length - 1] - rounds[0]));
    const y = v => T + (H - T - B) * (1 - v / maxHW);
    const svg = svgEl("svg",
      { viewBox: `0 0 ${W} ${H}`, width: "100%", role: "img",
        "aria-label": "CI half-width per round, one line per cell" });

    for (let i = 0; i <= 4; i++) {               // recessive y grid
      const v = (maxHW * i) / 4;
      svg.appendChild(svgEl("line", { x1: L, x2: W - R, y1: y(v), y2: y(v),
                                      stroke: "var(--gridline)",
                                      "stroke-width": 1 }));
      const lbl = svgEl("text", { x: L - 8, y: y(v) + 4, "text-anchor": "end",
                                  fill: "var(--text-muted)",
                                  "font-size": 11 });
      lbl.textContent = fmt(v, 3);
      svg.appendChild(lbl);
    }
    const step = Math.max(1, Math.ceil(rounds.length / 12));
    rounds.forEach((r, i) => {                   // x labels
      if (i % step !== 0 && i !== rounds.length - 1) return;
      const lbl = svgEl("text", { x: x(r), y: H - B + 18,
                                  "text-anchor": "middle",
                                  fill: "var(--text-muted)",
                                  "font-size": 11 });
      lbl.textContent = String(r);
      svg.appendChild(lbl);
    });
    const axisName = svgEl("text", { x: L, y: H - 2,
                                     fill: "var(--text-secondary)",
                                     "font-size": 11 });
    axisName.textContent = "round";
    svg.appendChild(axisName);

    if (DATA.meta.adaptive) {                    // target: dashed reference
      const ty = y(DATA.meta.target_halfwidth);
      svg.appendChild(svgEl("line", { x1: L, x2: W - R, y1: ty, y2: ty,
                                      stroke: "var(--text-muted)",
                                      "stroke-width": 1,
                                      "stroke-dasharray": "5 4" }));
      const lbl = svgEl("text", { x: W - R, y: ty - 5, "text-anchor": "end",
                                  fill: "var(--text-muted)",
                                  "font-size": 11 });
      lbl.textContent = `target ${fmt(DATA.meta.target_halfwidth, 3)}`;
      svg.appendChild(lbl);
    }

    conv.series.forEach((s, si) => {
      let d = "";
      s.hw.forEach((v, i) => {
        if (v === null) return;
        d += (d === "" ? "M" : "L") + fmt(x(rounds[i]), 1) + " " +
             fmt(y(v), 1);
      });
      svg.appendChild(svgEl("path", { d, fill: "none",
                                      stroke: seriesColor(si),
                                      "stroke-width": 2,
                                      "stroke-linejoin": "round" }));
      if (conv.series.length <= 4) {             // selective direct labels
        for (let i = s.hw.length - 1; i >= 0; i--) {
          if (s.hw[i] === null) continue;
          const lbl = svgEl("text", { x: x(rounds[i]) - 4,
                                      y: y(s.hw[i]) - 7,
                                      "text-anchor": "end",
                                      fill: "var(--text-secondary)",
                                      "font-size": 11 });
          lbl.textContent = s.name;
          svg.appendChild(lbl);
          break;
        }
      }
    });

    // hover layer: crosshair + tooltip at the nearest round
    const cross = svgEl("line", { y1: T, y2: H - B, stroke: "var(--gridline)",
                                  "stroke-width": 1, visibility: "hidden" });
    svg.appendChild(cross);
    const dots = conv.series.map((s, si) => {
      const c = svgEl("circle", { r: 4, fill: seriesColor(si),
                                  stroke: "var(--surface-1)",
                                  "stroke-width": 2, visibility: "hidden" });
      svg.appendChild(c);
      return c;
    });
    const hit = svgEl("rect", { x: L, y: T, width: W - L - R,
                                height: H - T - B, fill: "transparent" });
    svg.appendChild(hit);
    const tooltip = document.getElementById("tooltip");
    const wrap = document.getElementById("chart-wrap");
    hit.addEventListener("mousemove", ev => {
      const box = svg.getBoundingClientRect();
      const px = (ev.clientX - box.left) * (W / box.width);
      let best = 0, bestD = Infinity;
      rounds.forEach((r, i) => {
        const d = Math.abs(x(r) - px);
        if (d < bestD) { bestD = d; best = i; }
      });
      const r = rounds[best];
      cross.setAttribute("x1", x(r));
      cross.setAttribute("x2", x(r));
      cross.setAttribute("visibility", "visible");
      tooltip.innerHTML = "";
      tooltip.appendChild(el("div", { class: "row" }, `round ${r}`));
      conv.series.forEach((s, si) => {
        const v = s.hw[best];
        if (v === null) { dots[si].setAttribute("visibility", "hidden"); return; }
        dots[si].setAttribute("cx", x(r));
        dots[si].setAttribute("cy", y(v));
        dots[si].setAttribute("visibility", "visible");
        const row = el("div", { class: "row" });
        const sw = el("span", { class: "sw",
                                style: `width:8px;height:8px;border-radius:2px;
                                        background:${seriesColor(si)}` });
        row.appendChild(sw);
        row.appendChild(document.createTextNode(s.name + " "));
        row.appendChild(el("b", {}, fmt(v)));
        tooltip.appendChild(row);
      });
      const wb = wrap.getBoundingClientRect();
      tooltip.style.display = "block";
      tooltip.style.left =
        Math.min(ev.clientX - wb.left + 14, wb.width - 220) + "px";
      tooltip.style.top = (ev.clientY - wb.top + 14) + "px";
    });
    hit.addEventListener("mouseleave", () => {
      cross.setAttribute("visibility", "hidden");
      dots.forEach(d => d.setAttribute("visibility", "hidden"));
      tooltip.style.display = "none";
    });

    document.getElementById("chart").appendChild(svg);
    const legend = document.getElementById("legend");
    conv.series.forEach((s, si) => {
      const item = el("span", { class: "item" });
      const sw = el("span", { class: "sw" });
      sw.style.background = seriesColor(si);
      item.appendChild(sw);
      item.appendChild(document.createTextNode(s.name));
      legend.appendChild(item);
    });
    if (conv.folded > 0)
      note.textContent = `${conv.folded} additional cell(s) below the ` +
        "8-series cap are not charted; every cell appears in the table above.";
  }
}

// ---- timeline ----
{
  const table = document.getElementById("timeline-table");
  const head = el("tr");
  [["round"], ["blocks", 1], ["trials", 1], ["cumulative", 1],
   ["max half-width", 1], ["widest cell"], ["wall s", 1], ["shards", 1],
   ["status"]].forEach(([h, num]) =>
    head.appendChild(el("th", num ? { class: "num" } : {}, h)));
  table.appendChild(head);
  const chip = (color, label) => {
    const c = el("span", { class: "chip" });
    const dot = el("span", { class: "dot" });
    dot.style.background = color;
    c.appendChild(dot);
    c.appendChild(document.createTextNode(label));
    return c;
  };
  for (const r of DATA.timeline) {
    const tr = el("tr");
    tr.appendChild(el("td", {}, r.round === 0 ? "fixed" : String(r.round)));
    tr.appendChild(el("td", { class: "num" }, String(r.blocks)));
    tr.appendChild(el("td", { class: "num" },
                      r.trials.toLocaleString("en-US")));
    tr.appendChild(el("td", { class: "num" },
                      r.cum.toLocaleString("en-US")));
    tr.appendChild(el("td", { class: "num" }, fmt(r.max_hw)));
    tr.appendChild(el("td", {}, r.widest || "—"));
    tr.appendChild(el("td", { class: "num" }, fmt(r.wall, 3)));
    tr.appendChild(el("td", { class: "num" },
                      r.shards > 0 ? String(r.shards) : "—"));
    const status = el("td");
    if (r.resumed)
      status.appendChild(chip("var(--text-muted)", "↻ replayed"));
    if (r.timeouts > 0)
      status.appendChild(chip("var(--status-critical)",
                              `✖ ${r.timeouts} timeout(s)`));
    if (r.retries > 0)
      status.appendChild(chip("var(--status-serious)",
                              `⚠ ${r.retries} retries, ` +
                              `${r.requeued} requeued`));
    if (!r.resumed && r.timeouts === 0 && r.retries === 0)
      status.appendChild(chip("var(--status-good)", "✓ clean"));
    tr.appendChild(status);
    table.appendChild(tr);
  }
  if (DATA.timeline.length === 0) {
    const tr = el("tr");
    tr.appendChild(el("td", { colspan: "9", class: "note" },
                      "No round summaries ingested."));
    table.appendChild(tr);
  }
}

document.getElementById("footer").textContent =
  "Exported by campaign_query --html · every number recomputed from " +
  "the store's integer tallies · self-contained, no external assets.";
</script>
</body>
</html>
)html";

}  // namespace

std::string render_dashboard(const store_data& data) {
    std::string out;
    const std::string payload = payload_json(data);
    out.reserve(payload.size() + 24 * 1024);
    out += html_head;
    out += payload;
    out += html_tail;
    return out;
}

}  // namespace pssp::store
