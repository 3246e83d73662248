"""Golden tables: the P = 1 doubleton list and the P = 2 tensor products.

All seven tables read one ordered catalogue, FAMILIES, of the six one-colour
supermultiplet families of su(2,|4|2).  Table 1 lists them with fundamental
weights, labels and BPS fractions.  Table k = 2..7 decomposes the K-module
product of each family (letters a b c, parameter n) with the (k - 1)-th
(letters d e f, parameter m).  `render_table` states which table reads which
parameter, the goldens' defaults and the refusals.  Output is line-oriented
and stable for byte-level golden tests; parametric rows are printed
symbolically after the pattern has been verified at several numeric
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


# The six one-colour families, in the order of Table 1 and of the second
# factors of tables 2..7: kind -> (HWS text, with {0}..{2} the fermion letters
# and {k} the parameter symbol; Table 1's parameter symbol, None for a family
# without a parameter; |F_Delta|; the label at parameter k).
FAMILIES = {
    "vac": ("|0>", None, 0, lambda k: RepLabel(2, 2, 4, (), (), (), 1, 0)),
    "f": ("f+_{0}|0>", None, 0, lambda k: RepLabel(2, 2, 4, (), (1, 0, 0), (), 0, 0)),
    "ff": ("f+_{0} f+_{1}|0>", None, 0, lambda k: RepLabel(2, 2, 4, (), (1, 1, 0), (), 0, 0)),
    "fff": ("f+_{0} f+_{1} f+_{2}|0>", None, 0,
            lambda k: RepLabel(2, 2, 4, (), (1, 1, 1), (), 0, 0)),
    "am": ("(a+)^{k} Delta_f+|0>", "m", 1, lambda k: RepLabel(2, 2, 4, (), (), (k, 0), 0, 1)),
    "bn": ("(b+)^{k}|0>", "n", 0, lambda k: RepLabel(2, 2, 4, (k, 0), (), (), 1, 0)),
}

# the m (tables 6 and 7) and n (tables 2..7) of the shipped goldens
GOLDEN_M, GOLDEN_N = 2, 1


def doubleton(kind: str, k: int = 0) -> NonCompactYoungDiagram:
    """The P = 1 family `kind` of FAMILIES at parameter k, which only am and
    bn read."""
    _hws, _sym, fdelta, label = FAMILIES[kind]
    return realize(label(k), strategy=Realization(0, 0, fdelta, 1))


def _hws_text(kind: str, letters: str, sym) -> str:
    return FAMILIES[kind][0].format(*letters, k=sym)


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
    for kind, (_hws, sym, _fdelta, _label) in FAMILIES.items():
        if sym is None:
            d = doubleton(kind)
            weight_txt = _weight_text([rat_str(v) for v in _u0_weight(d)])
            lab_txt = label_2244(d.label)
        else:
            # verify the affine pattern at three instances, print symbolically
            ws = [_u0_weight(doubleton(kind, k)) for k in (1, 2, 3)]
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
            # the parameter is the one entry 2 of the label at k = 2
            lab_txt = label_2244(d.label).replace("2", sym, 1)
        s, sbar, _t, _tb = bps_type_22_4(d)
        bps = f"({rat_str(s)},{rat_str(sbar)})"
        lines.append(f"{_hws_text(kind, 'abc', sym):<22} {weight_txt:<28} {lab_txt:<16} {bps}")
    return lines


def tensor_table_rows(table: int, m: int, n: int):
    """Rows (lhs text, [labels]) of table 2..7: each family at parameter n,
    letters a b c, times the table's family at parameter m, letters d e f.
    A table outside 2..7 is refused (ValueError)."""
    if table not in range(2, 8):
        raise ValueError(f"table {table} has no tensor rows: of the tables 1..7, "
                         "tables 2..7 decompose tensor products")
    kind2 = dict(zip(range(2, 8), FAMILIES))[table]
    f2 = doubleton(kind2, m)
    rows = []
    for kind1 in FAMILIES:
        labels = tensor_decompose(f2, doubleton(kind1, n))
        rows.append((_hws_text(kind1, "abc", "n") + "_1", labels))
    return _hws_text(kind2, "def", "m") + "_2", rows


def render_table(table: int, m=None, n=None) -> str:
    """The text of table 1..7.  Tables 6 and 7 read m, the parameter of their
    second factor, and tables 2..7 read n, that of the first; each defaults
    to the goldens' (GOLDEN_M, GOLDEN_N).  Refused (ValueError), in this
    order: a table outside 1..7, a parameter the table does not read,
    n < 0, and m < n on tables 6 and 7.  The messages name the `tables`
    command's --m and --n."""
    if table not in range(1, 8):
        raise ValueError(f"table {table} is not one of the tables 1..7")
    if m is not None and table not in (6, 7):
        raise ValueError(f"table {table} does not read m = {m}: only tables 6 and 7 read --m")
    if n is not None and table == 1:
        raise ValueError(f"table 1 does not read n = {n}: only tables 2..7 read --n")
    m = GOLDEN_M if m is None else m
    n = GOLDEN_N if n is None else n
    if n < 0:
        raise ValueError(f"n = {n} is outside the supported range n >= 0")
    if table in (6, 7) and m < n:
        raise ValueError(f"table {table} needs m >= n, got m = {m}, n = {n}")
    if table == 1:
        return "\n".join(table1_lines()) + "\n"
    name2, rows = tensor_table_rows(table, m, n)
    lines = [
        f"# Table {table}: P=1 supermultiplets tensored with {name2}"
        + (f"  (m={m}, n={n}, m>=n)" if table in (6, 7) else "")
    ]
    for name1, labels in rows:
        body = " (+) ".join(label_2244(l) for l in labels)
        lines.append(f"{name1:<22} -> {body}")
    return "\n".join(lines) + "\n"
