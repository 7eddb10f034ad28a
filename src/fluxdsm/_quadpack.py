"""QUADPACK's dqagpe, ported for the NIS quadrature of nis_current.

A transcription of the public-domain Fortran routines dqagpe, dqk21,
dqpsrt and dqelg (Piessens, de Doncker-Kapenga, Ueberhuber & Kahaner,
QUADPACK, Springer 1983), with the break-point preprocessing that
scipy.integrate.quad puts in front of dqagpe. Every float operation
keeps its operands and its order, so value, error estimate and
evaluation count are those of quad(f, a, b, points=..., limit=...,
epsabs=..., epsrel=...) bit for bit. Arrays keep QUADPACK's 1-based
indices; slot 0 is unused.

dqk21, the 21-point Gauss-Kronrod rule, is written out node by node
with the NIS integrand in line (nis_rule), once per integrand form,
and compiled on first use, so an interval makes no function call per
node. The package imports this module inside nis_current, so no other
kind loads it.
"""

import functools
import math
import sys

# d1mach(4), d1mach(1) and d1mach(2): spacing at 1, smallest normal,
# largest float
EPMACH = sys.float_info.epsilon
UFLOW = sys.float_info.min
OFLOW = sys.float_info.max

# dqk21's abscissae xgk (Kronrod nodes, the even ones Gauss nodes) and
# weights wgk of the 21-point Kronrod rule, wg of the 10-point Gauss
# rule, as QUADPACK's data statements give them
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077208643474262,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


def _indent(text, spaces):
    return "".join(" " * spaces + line + "\n" for line in text.splitlines())


# The pieces of dqk21 that nis_rule joins. `make` takes an NIS point's
# parameters and returns `rule`, dqk21 on [a, b]; {point} sets fval to
# the integrand at s.
_RULE_HEAD = """\
def make(ev, kt, z):
    w = 1.0 + 2.0 * z * z
{setup}
    def rule(a, b):
        centr = 0.5 * (a + b)
        hlgth = 0.5 * (b - a)
        dhlgth = abs(hlgth)
        resg = 0.0
        s = centr
{point}
        fc = fval
        resk = {wgk_centre} * fc
        resabs = abs(resk)
"""
# one pair of nodes centr -+ hlgth xgk(j); {gauss} adds the Gauss term
# at the even j
_RULE_PAIR = """\
        absc = hlgth * {xgk}
        s = centr - absc
{point}
        fv1_{j} = fval
        s = centr + absc
{point}
        fv2_{j} = fval
        fsum = fv1_{j} + fv2_{j}
{gauss}\
        resk = resk + {wgk} * fsum
        resabs = resabs + {wgk} * (abs(fv1_{j}) + abs(fv2_{j}))
"""
_RULE_GAUSS = """\
        resg = resg + {wg} * fsum
"""
_RULE_ASC = """\
        resasc = resasc + {wgk} * (abs(fv1_{j} - reskh) + abs(fv2_{j} - reskh))
"""
_RULE_TAIL = """\
        result = resk * hlgth
        resabs = resabs * dhlgth
        resasc = resasc * dhlgth
        abserr = abs((resk - resg) * hlgth)
        if resasc != 0.0 and abserr != 0.0:
            abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
        if resabs > {uflow_bound}:
            abserr = max({eps50} * resabs, abserr)
        return result, abserr, resabs, resasc
    return rule
"""

# junctions._btk_kernel(abs(s), z) into k, with its w hoisted to make
_KERNEL = """\
e = abs(s)
if e < 1.0:
    e2 = e * e
    k = 2.0 / (e2 + (1.0 - e2) * w * w)
else:
    k = 2.0 / (1.0 + sqrt(e * e - 1.0) / e * w)
"""
# junctions._nis_integrand: the kernel times
# _fermi(s - ev, kt) - _fermi(s, kt)
_FERMI_POINT = _KERNEL + """\
y = (s - ev) / kt
if y <= 0.0:
    f = 1.0 / (1.0 + exp(y))
else:
    f = exp(-y)
    f = f / (1.0 + f)
y = s / kt
if y <= 0.0:
    fval = k * (f - 1.0 / (1.0 + exp(y)))
else:
    g = exp(-y)
    fval = k * (f - g / (1.0 + g))
"""
# junctions._nis_integrand_small, with 0.5 a, sinh(0.5 a) and
# cosh(0.5 a), a = ev / kt, hoisted to make
_SMALL_SETUP = """\
    half_a = 0.5 * (ev / kt)
    sh = sinh(half_a)
    ch = cosh(half_a)
"""
_SMALL_POINT = """\
u = s / kt - half_a
if abs(u) > 700.0:
    fval = 0.0
else:
""" + _indent(_KERNEL, 4) + """\
    fval = k * sh / (cosh(u) + ch)
"""


@functools.lru_cache(maxsize=2)
def nis_rule(small: bool):
    """dqk21 written out for junctions._nis_integrand_small (small
    true) or junctions._nis_integrand, compiled on first use: the
    factory make(ev, kt, z) of a rule(a, b) for qagpe that returns
    dqk21's (result, abserr, resabs, resasc), bit for bit those of
    dqk21 calling the integrand at (ev, kt, z). The centre comes first,
    then the Gauss pairs xgk(2), xgk(4), ..., xgk(10), then the other
    five, and resasc sums over j = 1..10 in order, as in dqk21."""
    point = _indent(_SMALL_POINT if small else _FERMI_POINT, 8)
    src = _RULE_HEAD.format(setup=_SMALL_SETUP if small else "", point=point,
                            wgk_centre=repr(_WGK[10]))
    for j in (2, 4, 6, 8, 10, 1, 3, 5, 7, 9):
        gauss = (_RULE_GAUSS.format(wg=repr(_WG[j // 2 - 1])) if j % 2 == 0
                 else "")
        src += _RULE_PAIR.format(j=j, xgk=repr(_XGK[j - 1]), point=point,
                                 gauss=gauss, wgk=repr(_WGK[j - 1]))
    src += "        reskh = resk * 0.5\n"
    src += f"        resasc = {_WGK[10]!r} * abs(fc - reskh)\n"
    src += "".join(_RULE_ASC.format(j=j, wgk=repr(_WGK[j - 1]))
                   for j in range(1, 11))
    src += _RULE_TAIL.format(uflow_bound=repr(UFLOW / (50.0 * EPMACH)),
                             eps50=repr(EPMACH * 50.0))
    namespace = {"exp": math.exp, "sqrt": math.sqrt, "sinh": math.sinh,
                 "cosh": math.cosh}
    form = "small" if small else "fermi"
    exec(compile(src, f"<dqk21, NIS {form} form>", "exec"), namespace)
    return namespace["make"]


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """dqpsrt: keep iord descending in elist after a bisection, and
    return the interval to bisect next as (maxerr, errmax, nrmax)."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
        maxerr = iord[nrmax]
        return maxerr, elist[maxerr], nrmax
    # after a bisection that increased the error, errmax first moves
    # up past the nrmax-th largest estimate
    errmax = elist[maxerr]
    for _ in range(nrmax - 1):
        isucc = iord[nrmax - 1]
        if errmax <= elist[isucc]:
            break
        iord[nrmax] = isucc
        nrmax -= 1
    # only the jupbn largest estimates are kept in order: the number
    # of bisections left cannot reach the others
    jupbn = last
    if last > limit // 2 + 2:
        jupbn = limit + 3 - last
    errmin = elist[last]
    jbnd = jupbn - 1
    # insert errmax top-down, then errmin bottom-up
    for i in range(nrmax + 1, jbnd + 1):
        isucc = iord[i]
        if errmax >= elist[isucc]:
            iord[i - 1] = maxerr
            k = jbnd
            for _ in range(i, jbnd + 1):
                isucc = iord[k]
                if errmin < elist[isucc]:
                    iord[k + 1] = last
                    break
                iord[k + 1] = isucc
                k -= 1
            else:
                iord[i] = last
            break
        iord[i - 1] = isucc
    else:
        iord[jbnd] = maxerr
        iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """dqelg: the epsilon algorithm on the n (1-based) partial sums in
    epstab, updated in place with res3la, the last three results.
    Returns (n, result, abserr, nres) with n adjusted as dqelg
    adjusts it."""
    nres += 1
    abserr = OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * EPMACH * abs(result)), nres
    limexp = 50
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = OFLOW
    num = n
    k1 = n
    for i in range(1, newelm + 1):
        k2 = k1 - 1
        k3 = k1 - 2
        res = epstab[k1 + 2]
        e0 = epstab[k3]
        e1 = epstab[k2]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * EPMACH
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 agree to machine accuracy: converged
            return n, res, max(err2 + err3, 5.0 * EPMACH * abs(res)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * EPMACH
        # two elements very close, or irregular behaviour: drop part of
        # the table
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 1e-4:
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 -= 2
        error = err2 + abs(res - e2) + err3
        if error > abserr:
            continue
        abserr = error
        result = res
    # shift the table
    if n == limexp:
        n = 2 * (limexp // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx += 1
    if nres < 4:
        res3la[nres] = result
        abserr = OFLOW
    else:
        abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                  + abs(result - res3la[1]))
        res3la[1] = res3la[2]
        res3la[2] = res3la[3]
        res3la[3] = result
    return n, result, max(abserr, 5.0 * EPMACH * abs(result)), nres


def _sum(values):
    """Left-to-right float sum from 0.0, as dqagpe's do loops add; the
    builtin sum compensates its rounding from Python 3.12 on."""
    total = 0.0
    for value in values:
        total = total + value
    return total


def qagpe(rule, a, b, points, epsabs, epsrel, limit):
    """dqagpe: the adaptive integral of a rule's integrand over [a, b],
    a < b, split first at the points that lie strictly inside, each
    taken once; rule(a1, b1) returns dqk21's (result, abserr, resabs,
    resasc) on [a1, b1]. Bisects the interval of largest error until
    the error estimate meets max(epsabs, epsrel |integral|), with
    Wynn's epsilon extrapolation over the interval levels, for at most
    limit intervals (limit > number of points; epsrel >= 50 EPMACH
    when epsabs <= 0, which dqagpe otherwise rejects).

    Returns (result, abserr, neval): the estimate, its error bound and
    the number of integrand evaluations. dqagpe's ier flag is not
    kept; the caller checks abserr against its own bound."""
    pts = [a, *sorted({p for p in points if a < p < b}), b]
    nint = len(pts) - 1
    npts2 = nint + 1
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    level = [0] * (limit + 1)

    # the first integral and error over each interval of the partition
    result = 0.0
    abserr = 0.0
    resabs = 0.0
    ndin = [False] * (nint + 1)
    for i in range(1, nint + 1):
        a1 = pts[i - 1]
        b1 = pts[i]
        area1, error1, defabs, resa = rule(a1, b1)
        abserr = abserr + error1
        result = result + area1
        ndin[i] = error1 == resa and error1 != 0.0
        resabs = resabs + defabs
        elist[i] = error1
        alist[i] = a1
        blist[i] = b1
        rlist[i] = area1
        iord[i] = i
    for i in range(1, nint + 1):
        if ndin[i]:
            elist[i] = abserr
    errsum = _sum(elist[1:nint + 1])
    neval = 21 * nint
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    ier = 0
    if abserr <= 100.0 * EPMACH * resabs and abserr > errbnd:
        ier = 2
    if nint > 1:
        # order iord by descending error
        for i in range(1, nint):
            ind1 = iord[i]
            for j in range(i + 1, nint + 1):
                ind2 = iord[j]
                if elist[ind1] > elist[ind2]:
                    continue
                ind1 = ind2
                k = j
            if ind1 != iord[i]:
                iord[k] = iord[i]
                iord[i] = ind1
        if limit < npts2:
            ier = 1
    if ier != 0 or abserr <= errbnd:
        return result, abserr, neval

    # dqelg's table of 52 partial sums
    rlist2 = [0.0] * 53
    rlist2[1] = result
    res3la = [0.0] * 4
    maxerr = iord[1]
    errmax = elist[maxerr]
    area = result
    nrmax = 1
    nres = 0
    numrl2 = 1
    ktmin = 0
    extrap = False
    noext = False
    erlarg = errsum
    ertest = errbnd
    levmax = 1
    iroff1 = iroff2 = iroff3 = 0
    ierro = 0
    abserr = OFLOW
    for last in range(npts2, limit + 1):
        # bisect the interval with the nrmax-th largest error
        levcur = level[maxerr] + 1
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, resa, defab1 = rule(a1, b1)
        area2, error2, resa, defab2 = rule(a2, b2)
        neval += 42
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12)
                    or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        level[maxerr] = levcur
        level[last] = levcur
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))
        # roundoff, the interval limit, and bad behaviour at a point
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if (max(abs(a1), abs(b2))
                <= (1.0 + 100.0 * EPMACH) * (abs(a2) + 1000.0 * UFLOW)):
            ier = 4
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord,
                                       nrmax)
        if errsum <= errbnd:
            return _sum(rlist[1:last + 1]), errsum, neval
        if ier != 0:
            break
        if noext:
            continue
        erlarg = erlarg - erlast
        if levcur + 1 <= levmax:
            erlarg = erlarg + erro12
        if not extrap:
            # extrapolate only once the interval to bisect is one of
            # the smallest
            if level[maxerr] + 1 <= levmax:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # the smallest interval has the largest error: first bisect
            # the larger intervals of large error
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if level[maxerr] + 1 <= levmax:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        # extrapolate
        numrl2 += 1
        rlist2[numrl2] = area
        if numrl2 > 2:
            numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la,
                                                 nres)
            ktmin += 1
            if ktmin > 5 and abserr < 1e-3 * errsum:
                ier = 5
            if abseps < abserr:
                ktmin = 0
                abserr = abseps
                result = reseps
                correc = erlarg
                ertest = max(epsabs, epsrel * abs(reseps))
                if abserr < ertest:
                    break
            if numrl2 == 1:
                noext = True
            if ier >= 5:
                break
        # go on bisecting the smallest intervals
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        levmax += 1
        erlarg = errsum

    # the extrapolated result, unless the plain sum is the better one
    if abserr == OFLOW:
        return _sum(rlist[1:last + 1]), errsum, neval
    if ier + ierro != 0:
        if ierro == 3:
            abserr = abserr + correc
        if result != 0.0 and area != 0.0:
            if abserr / abs(result) > errsum / abs(area):
                return _sum(rlist[1:last + 1]), errsum, neval
        elif abserr > errsum:
            return _sum(rlist[1:last + 1]), errsum, neval
    return result, abserr, neval
