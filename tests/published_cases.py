"""The published constants of the three ladder cases and their closed forms.

An oracle for ``sl2deform.cases``, which derives every one of these numbers
from each case's exponent pair on {1, x, x^3}: 0 -> 1, 1 -> 3 and 0 -> 3.  The constants are
the paper's; in case 3 the printed form carries a sqrt(3) prefactor, folded
here into the radicand (times 3) and the delta coefficients (over 3).
"""

from dataclasses import dataclass
from fractions import Fraction as Fr

from sl2deform.cases import CaseId
from sl2deform.scalars import sqrt_exact


@dataclass(frozen=True)
class Published:
    # alpha = 0: c = c_const - gamma/(2 beta), delta = gamma^2/(4 beta) - k0 * beta
    alpha0_delta_coeff: Fr
    # alpha != 0 radicand ra*alpha^2 + rb*beta^2 + rc*alpha*gamma
    radicand: tuple[Fr, Fr, Fr]
    radicand_premul: int         # radicand is scaled by this before sqrt
    c_const: Fr                  # c = c_const - beta/(3 alpha) +- S/(c_sqrt_den*alpha)
    c_sqrt_den: int
    # delta = da*alpha - (2/27) beta^3/alpha^2 + beta*gamma/(3 alpha)
    #         +- (db2*beta^2/alpha^2 + dg*gamma/alpha + dc) * S / d_sqrt_den
    delta_alpha: Fr
    delta_b2: Fr
    delta_g: Fr
    delta_const: Fr
    d_sqrt_den: int
    fg_shift: Fr                 # ladder product fg = cubic(c + fg_shift)
    # intrinsic locus: gamma = ig_alpha * alpha + beta^2/(3 alpha)
    ig_alpha: Fr
    intrinsic_fg: Fr             # fg = intrinsic_fg * alpha on the locus
    upper_needs_negative_alpha: bool
    intrinsic_c_const: Fr        # c = intrinsic_c_const - beta/(3 alpha) on the locus
    raise_terms: dict
    lower_terms: dict

    def radicand_at(self, alpha, beta, gamma):
        ra, rb, rc = self.radicand
        return ra * alpha * alpha + rb * beta * beta + rc * alpha * gamma

    def gamma_for_radicand(self, alpha, beta, target):
        """The gamma at which the (unscaled) radicand equals ``target``."""
        ra, rb, rc = self.radicand
        return (target - ra * alpha**2 - rb * beta**2) / (rc * alpha)


PUBLISHED = {
    CaseId.CASE1: Published(
        alpha0_delta_coeff=Fr(169, 100),
        radicand=(Fr(-579), Fr(100), Fr(-300)), radicand_premul=1,
        c_const=Fr(-7, 10), c_sqrt_den=30,
        delta_alpha=Fr(39, 125), delta_b2=Fr(1, 135), delta_g=Fr(-1, 45),
        delta_const=Fr(-166, 1125), d_sqrt_den=1,
        fg_shift=Fr(0),
        ig_alpha=Fr(-31, 16), intrinsic_fg=Fr(3, 2),
        upper_needs_negative_alpha=True,
        intrinsic_c_const=Fr(-3, 4),
        raise_terms={(3, 2): Fr(1, 3), (2, 1): Fr(-1), (1, 0): Fr(1)},
        lower_terms={(1, 2): Fr(-1, 2), (0, 1): Fr(1)},
    ),
    CaseId.CASE2: Published(
        alpha0_delta_coeff=Fr(25, 64),
        radicand=(Fr(-111), Fr(64), Fr(-192)), radicand_premul=1,
        c_const=Fr(-1, 8), c_sqrt_den=24,
        delta_alpha=Fr(-15, 128), delta_b2=Fr(1, 108), delta_g=Fr(-1, 36),
        delta_const=Fr(-47, 1152), d_sqrt_den=1,
        fg_shift=Fr(1),
        ig_alpha=Fr(-5, 8), intrinsic_fg=Fr(3, 16),
        upper_needs_negative_alpha=False,
        intrinsic_c_const=Fr(0),
        raise_terms={(4, 2): Fr(-1, 2), (3, 1): Fr(1)},
        lower_terms={(0, 2): Fr(1, 6)},
    ),
    CaseId.CASE3: Published(
        alpha0_delta_coeff=Fr(25, 36),
        radicand=(Fr(47), Fr(12), Fr(-36)), radicand_premul=3,
        c_const=Fr(-5, 6), c_sqrt_den=18,
        delta_alpha=Fr(5, 3), delta_b2=Fr(1, 27), delta_g=Fr(-1, 9),
        delta_const=Fr(-34, 81), d_sqrt_den=3,
        fg_shift=Fr(2, 3),
        ig_alpha=Fr(-55, 144), intrinsic_fg=Fr(-1, 18),
        upper_needs_negative_alpha=False,
        intrinsic_c_const=Fr(-1, 12),
        raise_terms={(5, 2): Fr(1, 3), (4, 1): Fr(-1), (3, 0): Fr(1)},
        lower_terms={(-1, 2): Fr(1, 6)},
    ),
}


def published_solution(case, alpha, beta, gamma, branch="upper"):
    """(c, delta, f*g) by the published closed forms; alpha, beta, gamma rational."""
    pub = PUBLISHED[case]
    if alpha == 0:
        c = pub.c_const - gamma / (2 * beta)
        delta = gamma * gamma / (4 * beta) - pub.alpha0_delta_coeff * beta
    else:
        sign = 1 if branch == "upper" else -1
        root = sqrt_exact(pub.radicand_premul * pub.radicand_at(alpha, beta, gamma))
        c = pub.c_const - beta / (3 * alpha) + sign * root / (pub.c_sqrt_den * alpha)
        delta = (
            pub.delta_alpha * alpha
            - Fr(2, 27) * beta**3 / (alpha * alpha)
            + beta * gamma / (3 * alpha)
            + sign
            * (
                pub.delta_b2 * beta * beta / (alpha * alpha)
                + pub.delta_g * gamma / alpha
                + pub.delta_const
            )
            * root
            / pub.d_sqrt_den
        )
    t = c + pub.fg_shift
    fg = ((alpha * t + beta) * t + gamma) * t + delta
    return c, delta, fg


def published_intrinsic(case, alpha, beta):
    """(gamma, f*g, c, branch) on the published intrinsic locus, alpha != 0."""
    pub = PUBLISHED[case]
    gamma = pub.ig_alpha * alpha + beta * beta / (3 * alpha)
    c = pub.intrinsic_c_const - beta / (3 * alpha)
    upper = (alpha < 0) == pub.upper_needs_negative_alpha
    return gamma, pub.intrinsic_fg * alpha, c, "upper" if upper else "lower"
