"""Dependency-free SVG line charts with deterministic byte output."""

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 20, 42, 48
COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
          "#8c564b", "#e377c2", "#7f7f7f"]


def escape(text):
    """text with &, > and < as XML entities, & first."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(x):
    return f"{x:.2f}".rstrip("0").rstrip(".")


def _ticks(lo, hi, n=5):
    if lo == hi:
        lo, hi = lo - 1.0, hi + 1.0
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)], lo, hi


def render_svg(series, labels, path, title, xlabel, ylabel):
    """Write a titled line chart with labelled axes from (xs, ys) series.

    Identical inputs give byte-identical files (fixed layout, fixed float
    formatting, no timestamps).
    """
    if not series:
        raise ValueError("no series to plot")
    for xs, ys in series:
        if len(xs) != len(ys):
            raise ValueError("series x/y lengths disagree")
        if len(xs) == 0:
            raise ValueError("empty series")
    if len(labels) != len(series):
        raise ValueError("one label per series required")
    all_x = [float(v) for xs, _ in series for v in xs]
    all_y = [float(v) for _, ys in series for v in ys]
    xticks, xlo, xhi = _ticks(min(all_x), max(all_x))
    yticks, ylo, yhi = _ticks(min(all_y), max(all_y))
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x):
        return MARGIN_L + (float(x) - xlo) / (xhi - xlo) * plot_w

    def py(y):
        return MARGIN_T + plot_h - (float(y) - ylo) / (yhi - ylo) * plot_h

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
           f'viewBox="0 0 {WIDTH} {HEIGHT}">',
           f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>']
    out.append(f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
               f'font-family="sans-serif" font-size="15">{escape(title)}</text>')
    # frame and ticks
    out.append(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
               f'fill="none" stroke="#333" stroke-width="1"/>')
    for tx in xticks:
        x = _fmt(px(tx))
        out.append(f'<line x1="{x}" y1="{MARGIN_T + plot_h}" x2="{x}" '
                   f'y2="{MARGIN_T + plot_h + 5}" stroke="#333"/>')
        out.append(f'<text x="{x}" y="{MARGIN_T + plot_h + 20}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="11">{_fmt_val(tx)}</text>')
    for ty in yticks:
        y = _fmt(py(ty))
        out.append(f'<line x1="{MARGIN_L - 5}" y1="{y}" x2="{MARGIN_L}" y2="{y}" '
                   f'stroke="#333"/>')
        out.append(f'<text x="{MARGIN_L - 9}" y="{y}" text-anchor="end" dy="4" '
                   f'font-family="sans-serif" font-size="11">{_fmt_val(ty)}</text>')
    out.append(f'<text x="{MARGIN_L + plot_w // 2}" y="{HEIGHT - 10}" '
               f'text-anchor="middle" font-family="sans-serif" font-size="12">'
               f'{escape(xlabel)}</text>')
    cy = MARGIN_T + plot_h // 2
    out.append(f'<text x="16" y="{cy}" text-anchor="middle" font-family="sans-serif" '
               f'font-size="12" transform="rotate(-90 16 {cy})">{escape(ylabel)}</text>')
    for i, (xs, ys) in enumerate(series):
        color = COLORS[i % len(COLORS)]
        pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(xs, ys))
        if len(xs) > 1:
            out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                       f'stroke-width="1.5"/>')
        for x, y in zip(xs, ys):
            out.append(f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="3" '
                       f'fill="{color}"/>')
        ly = MARGIN_T + 14 + 16 * i
        lx = MARGIN_L + plot_w - 150
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                   f'font-size="11">{escape(str(labels[i]))}</text>')
    out.append("</svg>")
    text = "\n".join(out) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return text


def _fmt_val(v):
    """Tick label: compact but unambiguous."""
    return f"{v:.4g}"
