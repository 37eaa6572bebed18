"""SVG rendering of a path on its lattice grid with the diagonal."""

from __future__ import annotations

from .core import DyckPath, ranks

CELL = 40
MARGIN = 30


def render_svg(path: DyckPath, labels: bool = True) -> str:
    """Grid, diagonal, path polyline, and (optionally) one rank label per step start."""
    m, n = path.frame.m, path.frame.n
    width = m * CELL + 2 * MARGIN
    height = n * CELL + 2 * MARGIN

    def px(x: float) -> float:
        return MARGIN + x * CELL

    def py(y: float) -> float:
        return MARGIN + (n - y) * CELL

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f"<title>({m},{n}) path {path.steps}</title>",  # two ints and an N/E word: no escaping
        '<g stroke="#cccccc" stroke-width="1">',
    ]
    for x in range(m + 1):
        parts.append(
            f'<line x1="{px(x)}" y1="{py(0)}" x2="{px(x)}" y2="{py(n)}"/>'
        )
    for y in range(n + 1):
        parts.append(
            f'<line x1="{px(0)}" y1="{py(y)}" x2="{px(m)}" y2="{py(y)}"/>'
        )
    parts.append("</g>")
    parts.append(
        f'<line x1="{px(0)}" y1="{py(0)}" x2="{px(m)}" y2="{py(n)}" '
        'stroke="#888888" stroke-width="1.5" stroke-dasharray="6,4"/>'
    )
    x = y = 0
    vertices = [(px(x), py(y))]
    for ch in path.steps:
        if ch == "N":
            y += 1
        else:
            x += 1
        vertices.append((px(x), py(y)))
    points = " ".join(f"{vx},{vy}" for vx, vy in vertices)
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="#1f4e9c" stroke-width="3"/>'
    )
    if labels:
        for (vx, vy), r in zip(vertices, ranks(path)):
            parts.append(
                f'<text x="{vx - 6}" y="{vy + 14}" font-size="11" '
                f'text-anchor="end" fill="#b03030">{r}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts)
