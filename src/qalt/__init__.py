"""Jones polynomials two ways, gap analysis, and quasi-alternating tests."""

from .laurent import (
    GapReport,
    HalfLaurent,
    SupportNotOnLattice,
    ZeroPolynomial,
    analyze,
    monomial_quotient,
    parse,
)
from .diagram import (
    Diagram,
    DisconnectedDiagram,
    EmptyDiagram,
    InvalidCrossing,
    InvalidStrandLabels,
    NoEmbedding,
    PDSyntaxError,
    parse_pd,
)
from .tait import (
    SignedPlanarGraph,
    checkerboard,
    gamma,
    goeritz_det,
    parse_edgelist,
)
from .bracket import (
    BracketResult,
    bracket_result,
    bracket_state_sum,
    determinant,
    jones,
    kauffman_bracket,
)
from .qa import (
    INCONCLUSIVE,
    NOTQA,
    Budget,
    Certificate,
    KanenobuVerdict,
    QAVerdict,
    Unknown,
    certify,
    kanenobu_jones,
    kanenobu_obstruction,
    obstruct,
    replay_certificate,
)

__all__ = [
    "GapReport", "HalfLaurent", "SupportNotOnLattice", "ZeroPolynomial",
    "analyze", "monomial_quotient", "parse",
    "Diagram", "DisconnectedDiagram", "EmptyDiagram", "InvalidCrossing",
    "InvalidStrandLabels", "NoEmbedding", "PDSyntaxError", "parse_pd",
    "SignedPlanarGraph", "checkerboard", "gamma",
    "goeritz_det", "parse_edgelist",
    "BracketResult", "bracket_result", "bracket_state_sum", "determinant",
    "jones", "kauffman_bracket",
    "INCONCLUSIVE", "NOTQA", "Budget", "Certificate", "KanenobuVerdict",
    "QAVerdict", "Unknown", "certify", "kanenobu_jones",
    "kanenobu_obstruction", "obstruct", "replay_certificate",
]
