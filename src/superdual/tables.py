"""Golden tables: the P = 1 doubleton list and the P = 2 tensor products.

Table 1 lists the six one-colour supermultiplet families of su(2,|4|2) with
fundamental weights, labels and BPS fractions.  Tables 2..7 decompose the
K-module product of each family with the six one-colour factors.  Output is
line-oriented and stable for byte-level golden tests; parametric rows are
printed symbolically after the pattern has been verified at several numeric
instances.
"""

from __future__ import annotations

from .diagrams import NonCompactYoungDiagram, Realization, realize
from .labels import RepLabel
from .oscillator.module import build_u0, verify_hws
from .oscillator.tensor import tensor_decompose
from .rationals import rat_str
from .shortening import bps_type_22_4


def label_2244(label: RepLabel) -> str:
    """Compact display tuple for su(2,2|4): [n_L,t1t2t3,n_R;bL,bR]."""
    tau = "".join(str(label.tau.part(i)) for i in range(1, label.m))
    return (
        f"[{label.mu_L.part(1)},{tau},{label.mu_R.part(1)};"
        f"{rat_str(label.beta_L)},{rat_str(label.beta_R)}]"
    )


def doubleton(kind: str, n: int = 0) -> NonCompactYoungDiagram:
    """The P = 1 families: vac, f, ff, fff, am (a^m Delta_f), bn ((b)^n)."""
    table = {
        "vac": RepLabel(2, 2, 4, (), (), (), 1, 0),
        "f": RepLabel(2, 2, 4, (), (1, 0, 0), (), 0, 0),
        "ff": RepLabel(2, 2, 4, (), (1, 1, 0), (), 0, 0),
        "fff": RepLabel(2, 2, 4, (), (1, 1, 1), (), 0, 0),
        "am": RepLabel(2, 2, 4, (), (), (n, 0), 0, 1),
        "bn": RepLabel(2, 2, 4, (n, 0), (), (), 1, 0),
    }
    return realize(table[kind], strategy=Realization(0, 0, 1 if kind == "am" else 0, 1))


_T1_ROWS = [
    ("|0>", "vac", None),
    ("f+_a|0>", "f", None),
    ("f+_a f+_b|0>", "ff", None),
    ("f+_a f+_b f+_c|0>", "fff", None),
    ("(a+)^m Delta_f+|0>", "am", "m"),
    ("(b+)^n|0>", "bn", "n"),
]


def _weight_text(cells) -> str:
    """[E_11,E_22;E_33..E_66;E_77,E_88] from the texts of the eight entries."""
    return f"[{','.join(cells[:2])};{','.join(cells[2:6])};{','.join(cells[6:])}]"


def _u0_weight(d: NonCompactYoungDiagram) -> tuple:
    """The weight of the K-highest vector of U_0(d), checked to be a
    highest-weight vector (AssertionError otherwise)."""
    rep = verify_hws(*build_u0(d))
    if not rep.raised_to_zero:
        raise AssertionError(f"U_0 of {d.label} is not annihilated by every E_ij, i < j")
    return rep.weight.values


def table1_lines():
    lines = ["# Table 1: su(2,|4|2) unitary supermultiplets with one colour (P=1)"]
    lines.append("# HWS | fundamental weight [E_11..E_88] | [mu_L,tau,mu_R;beta_L,beta_R] | BPS")
    for name, kind, sym in _T1_ROWS:
        if sym is None:
            d = doubleton(kind)
            weight_txt = _weight_text([rat_str(v) for v in _u0_weight(d)])
            lab_txt = label_2244(d.label)
        else:
            # verify the affine pattern at three instances, print symbolically
            ws = [_u0_weight(doubleton(kind, n)) for n in (1, 2, 3)]
            deltas = [tuple(b - a for a, b in zip(ws[0], ws[1])),
                      tuple(b - a for a, b in zip(ws[1], ws[2]))]
            if deltas[0] != deltas[1]:
                raise AssertionError(f"the {kind} weight is not affine in the parameter")
            slot = [i for i, dv in enumerate(deltas[0]) if dv][0]
            sign = "+" if deltas[0][slot] > 0 else "-"
            base = ws[0][slot] - deltas[0][slot]

            def cell(i):
                if i == slot:
                    if sign == "+" and base == 0:
                        return sym
                    if sign == "-" and base == -1:
                        return f"-(1+{sym})"
                    raise AssertionError("unexpected parametric pattern")
                return rat_str(ws[0][i])

            weight_txt = _weight_text([cell(i) for i in range(8)])
            d = doubleton(kind, 2)
            lab_txt = label_2244(d.label).replace("2", sym, 1) if kind == "bn" else (
                label_2244(d.label).replace(",2;", f",{sym};")
            )
        s, sbar, _t, _tb = bps_type_22_4(d)
        bps = f"({rat_str(s)},{rat_str(sbar)})"
        lines.append(f"{name:<22} {weight_txt:<28} {lab_txt:<16} {bps}")
    return lines


_FACTORS = [
    ("|0>_1", "vac", 0),
    ("f+_a|0>_1", "f", 0),
    ("f+_a f+_b|0>_1", "ff", 0),
    ("f+_a f+_b f+_c|0>_1", "fff", 0),
    ("(a+)^n Delta_f+|0>_1", "am", "n"),
    ("(b+)^n|0>_1", "bn", "n"),
]

_TABLE_FACTOR2 = {
    2: ("|0>_2", "vac", 0),
    3: ("f+_d|0>_2", "f", 0),
    4: ("f+_d f+_e|0>_2", "ff", 0),
    5: ("f+_d f+_e f+_f|0>_2", "fff", 0),
    6: ("(a+)^m Delta_f+|0>_2", "am", "m"),
    7: ("(b+)^m|0>_2", "bn", "m"),
}


def tensor_table_rows(table: int, m: int = 2, n: int = 1):
    """Rows (lhs text, [labels]) of table 2..7 at concrete (m, n), m >= n."""
    name2, kind2, par2 = _TABLE_FACTOR2[table]
    f2 = doubleton(kind2, m if par2 else 0)
    rows = []
    for name1, kind1, par1 in _FACTORS:
        f1 = doubleton(kind1, n if par1 else 0)
        labels = tensor_decompose(f2, f1)
        rows.append((name1, labels))
    return name2, rows


def table_lines(table: int, m: int = 2, n: int = 1):
    """The lines of the table; n < 0, or m < n on tables 6 and 7, is refused
    (ValueError)."""
    if n < 0:
        raise ValueError(f"n = {n} is outside the supported range n >= 0")
    if table in (6, 7) and m < n:
        raise ValueError(f"table {table} needs m >= n, got m = {m}, n = {n}")
    if table == 1:
        return table1_lines()
    name2, rows = tensor_table_rows(table, m, n)
    lines = [
        f"# Table {table}: P=1 supermultiplets tensored with {name2}"
        + (f"  (m={m}, n={n}, m>=n)" if table in (6, 7) else "")
    ]
    for name1, labels in rows:
        body = " (+) ".join(label_2244(l) for l in labels)
        lines.append(f"{name1:<22} -> {body}")
    return lines


def render_table(table: int, m: int = 2, n: int = 1) -> str:
    return "\n".join(table_lines(table, m, n)) + "\n"
