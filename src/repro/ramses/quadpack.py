"""QUADPACK's QAGS and Brent's root finder, ported operation for operation.

The background cosmology needs about twenty smooth one-dimensional
integrals and one root per REAL run.  They used to come from the compiled
QUADPACK and ``brentq.c`` behind a general-purpose scientific library,
and loading that library cost more than the run's own start-up (DESIGN
"Cold start").  This module is what those two calls execute, in Python:

* :func:`qagse` is ``dqagse`` (Piessens, de Doncker-Kapenga, Überhuber,
  Kahaner: *QUADPACK*, Springer 1983) with its three subroutines — the
  21-point Gauss-Kronrod rule ``dqk21``, the error-list maintenance
  ``dqpsrt`` and Wynn's epsilon algorithm ``dqelg``;
* :func:`brentq` is the classic ``brentq.c`` (after Brent, *Algorithms
  for Minimization Without Derivatives*, 1973).

**The order of the floating-point operations is the specification.**  Every
halo catalog, snapshot and pinned digest downstream was produced through
the compiled routines, so a port that is merely accurate would move them
all in the last bit.  The node and weight literals, the association of
every sum and product, the direction of every comparison (they differ for
NaN) and the labels of the original are kept, and the work arrays stay
1-based (element 0 unused) so the index arithmetic reads like the Fortran.
``tests/unit/ramses/test_quadpack.py`` holds both functions to ``==`` with
the compiled routines in value, error estimate, evaluation count and
``ier``.  Do not tidy the arithmetic.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

__all__ = ["brentq", "integral", "qagse"]

_EPMACH = sys.float_info.epsilon  # d1mach(4)
_UFLOW = sys.float_info.min       # d1mach(1)
_OFLOW = sys.float_info.max       # d1mach(2)

# Abscissae of the 21-point Kronrod rule (xgk[2], xgk[4], ... are those of
# the 10-point Gauss rule), its weights, and the Gauss weights.
_XGK = (None,
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
        0.000000000000000000000000000000000)
_WGK = (None,
        0.011694638867371874278064396062192,
        0.032558162307964727478818972459390,
        0.054755896574351996031381300244580,
        0.075039674810919952767043140916190,
        0.093125454583697605535065465083366,
        0.109387158802297641899210590325805,
        0.123491976262065851077958109585166,
        0.134709217311473325928054001771707,
        0.142775938577060080797094273138717,
        0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (None,
       0.066671344308688137593568809893332,
       0.149451349150580593145776339657697,
       0.219086362515982043995534934228163,
       0.269266719309996355091226921569469,
       0.295524224714752870173815619188769)


def _qk21(f, a, b):
    """``dqk21``: returns ``(result, abserr, resabs, resasc)`` on [a, b]."""
    fv1 = [0.0] * 11
    fv2 = [0.0] * 11
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    # the 21-point kronrod approximation and the absolute error estimate
    resg = 0.0
    fc = f(centr)
    resk = _WGK[11] * fc
    resabs = abs(resk)
    for j in range(1, 6):
        jtw = 2 * j
        absc = hlgth * _XGK[jtw]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[jtw] = fval1
        fv2[jtw] = fval2
        fsum = fval1 + fval2
        resg = resg + _WG[j] * fsum
        resk = resk + _WGK[jtw] * fsum
        resabs = resabs + _WGK[jtw] * (abs(fval1) + abs(fval2))
    for j in range(1, 6):
        jtwm1 = 2 * j - 1
        absc = hlgth * _XGK[jtwm1]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[jtwm1] = fval1
        fv2[jtwm1] = fval2
        fsum = fval1 + fval2
        resk = resk + _WGK[jtwm1] * fsum
        resabs = resabs + _WGK[jtwm1] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[11] * abs(fc - reskh)
    for j in range(1, 11):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """``dqpsrt``: keep ``iord`` pointing at ``elist`` in descending order;
    returns ``(maxerr, ermax, nrmax)``."""
    if last > 2:
        # only executed if, due to a difficult integrand, subdivision
        # increased the error estimate; normally the insert procedure
        # starts after the nrmax-th largest error estimate.
        errmax = elist[maxerr]
        if nrmax != 1:
            ido = nrmax - 1
            for _i in range(1, ido + 1):
                isucc = iord[nrmax - 1]
                if errmax <= elist[isucc]:
                    break
                iord[nrmax] = isucc
                nrmax = nrmax - 1
        # the number of elements to keep in descending order depends on
        # the number of subdivisions still allowed.
        jupbn = last
        if last > (limit // 2 + 2):
            jupbn = limit + 3 - last
        errmin = elist[last]
        # insert errmax by traversing the list top-down, starting
        # comparison from the element elist[iord[nrmax+1]].
        jbnd = jupbn - 1
        ibeg = nrmax + 1
        for i in range(ibeg, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                # 60: insert errmin by traversing the list bottom-up.
                iord[i - 1] = maxerr
                k = jbnd
                for _j in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last  # 80
                        break
                    iord[k + 1] = isucc
                    k = k - 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr  # 50
            iord[jupbn] = last
    else:
        iord[1] = 1
        iord[2] = 2
    maxerr = iord[nrmax]  # 90
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """``dqelg``: one pass of the epsilon algorithm over ``epstab[1..n]``;
    returns ``(n, result, abserr, nres)`` (``n`` shrinks when part of the
    table is dropped)."""
    nres = nres + 1
    abserr = _OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres  # 100
    limexp = 50
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
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
        tol2 = max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 are equal to within machine accuracy:
            # convergence is assumed.
            result = res
            abserr = err2 + err3
            return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres  # 90
        e3 = epstab[k1]  # 10
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        # if two elements are very close to each other, omit a part of
        # the table by adjusting the value of n
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1  # 20
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        # irregular behaviour in the table: omit a part of it likewise.
        if not epsinf > 0.1e-03:
            n = i + i - 1  # 20
            break
        # 30: compute a new element and eventually adjust result.
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 = k1 - 2
        error = err2 + abs(res - e2) + err3
        if error > abserr:
            continue
        abserr = error
        result = res
    # 50: shift the table.
    if n == limexp:
        n = 2 * (limexp // 2) - 1
    ib = 1
    if (num // 2) * 2 == num:
        ib = 2
    ie = newelm + 1
    for _i in range(1, ie + 1):
        ib2 = ib + 2
        epstab[ib] = epstab[ib2]
        ib = ib2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx = indx + 1
    if nres >= 4:  # 80
        # compute error estimate
        abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                  + abs(result - res3la[1]))
        res3la[1] = res3la[2]
        res3la[2] = res3la[3]
        res3la[3] = result
    else:
        res3la[nres] = result
        abserr = _OFLOW
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres  # 100


def qagse(f: Callable[[float], float], a: float, b: float,
          epsabs: float = 1.49e-8, epsrel: float = 1.49e-8,
          limit: int = 50) -> tuple[float, float, int, int]:
    """Integrate ``f`` over the finite interval [a, b]: globally adaptive
    bisection with the 21-point Gauss-Kronrod rule, accelerated by the
    epsilon algorithm (QUADPACK ``dqagse``).

    Returns ``(result, abserr, neval, ier)``.  ``ier`` is QUADPACK's: 0 the
    requested accuracy is believed reached; 1 ``limit`` subintervals were
    not enough; 2 round-off prevents the tolerance; 3 bad integrand
    behaviour at a point; 4 the extrapolation table does not converge; 5
    the integral is probably divergent or converges slowly; 6 invalid
    tolerances.  ``result`` and ``abserr`` are the best available either
    way.
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")
    a = float(a)
    b = float(b)
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    rlist2 = [0.0] * 53
    res3la = [0.0] * 4

    # test on validity of parameters
    alist[1] = a
    blist[1] = b
    if epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 0.5e-28):
        return 0.0, 0.0, 0, 6

    # first approximation to the integral
    ier = 0
    ierro = 0
    result, abserr, defabs, resabs = _qk21(f, a, b)

    # test on accuracy.
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    last = 1
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, 42 * last - 21, ier  # 140

    # initialization
    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    iroff1 = 0
    iroff2 = 0
    iroff3 = 0
    ksgn = -1
    if dres >= (1.0 - 50.0 * _EPMACH) * defabs:
        ksgn = 1
    small = erlarg = ertest = correc = 0.0  # set at last == 2
    sum_the_list = False  # "go to 115"

    # main do-loop
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate.
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, resabs, defab1 = _qk21(f, a1, b1)
        area2, error2, resabs, defab2 = _qk21(f, a2, b2)

        # improve previous approximations to integral and error and
        # test for accuracy.
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 0.1e-04 * abs(area12)
                    or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 = iroff2 + 1
                if not extrap:
                    iroff1 = iroff1 + 1
            if last > 10 and erro12 > errmax:  # 10
                iroff3 = iroff3 + 1
        rlist[maxerr] = area1  # 15
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))

        # test for roundoff error and eventually set error flag.
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        # the number of subintervals equals limit.
        if last == limit:
            ier = 1
        # bad integrand behaviour at a point of the integration range.
        if max(abs(a1), abs(b2)) <= ((1.0 + 100.0 * _EPMACH)
                                     * (abs(a2) + 1000.0 * _UFLOW)):
            ier = 4

        # append the newly-created intervals to the list.
        if error2 > error1:
            alist[maxerr] = a2  # 20
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

        # 30: maintain the descending ordering in the list of error
        # estimates and select the subinterval to be bisected next.
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            sum_the_list = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375  # 80
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # test whether the interval to be bisected next is the
            # smallest interval.
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):  # 40
            # the smallest interval has the largest error.  before
            # bisecting decrease the sum of the errors over the larger
            # intervals (erlarg) and perform extrapolation.
            id_ = nrmax
            jupbnd = last
            if last > (2 + limit // 2):
                jupbnd = limit + 3 - last
            found_larger = False
            for _k in range(id_, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    found_larger = True
                    break
                nrmax = nrmax + 1
            if found_larger:
                continue

        # 60: perform extrapolation.
        numrl2 = numrl2 + 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin = ktmin + 1
        if ktmin > 5 and abserr < 0.1e-02 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break

        # 70: prepare bisection of the smallest interval.
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # 100: set final result and error estimate.
    test_divergence = False  # "go to 110"
    if not sum_the_list:
        if abserr == _OFLOW:
            sum_the_list = True
        elif ier + ierro == 0:
            test_divergence = True
        else:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                if abserr / abs(result) > errsum / abs(area):  # 105
                    sum_the_list = True
                else:
                    test_divergence = True
            elif abserr > errsum:
                sum_the_list = True
            elif area != 0.0:
                test_divergence = True
    if test_divergence:  # 110
        if not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
            if (0.01 > (result / area) or (result / area) > 100.0
                    or errsum > abs(area)):
                ier = 6
    if sum_the_list:  # 115: compute global integral sum.
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    if ier > 2:  # 130
        ier = ier - 1
    return result, abserr, 42 * last - 21, ier  # 140


def integral(what: str, f: Callable[[float], float], a: float, b: float,
             limit: int) -> float:
    """:func:`qagse` at its default tolerances, or ``ArithmeticError`` naming
    ``what`` when QUADPACK does not vouch for the value (``ier != 0``)."""
    result, abserr, _neval, ier = qagse(f, a, b, limit=limit)
    if ier != 0:
        raise ArithmeticError(
            f"{what}: QAGS did not converge "
            f"(ier={ier}, abserr={abserr!r}, best value {result!r})")
    return result


def _signbit(x: float) -> bool:
    return math.copysign(1.0, x) < 0


def brentq(f: Callable[[float], float], a: float, b: float, xtol: float,
           rtol: float = 4 * _EPMACH,
           maxiter: int = 100) -> tuple[float, int, int]:
    """A root of ``f`` in the sign-changing bracket [a, b] by Brent's
    method (bisection, secant and inverse quadratic interpolation), to
    within ``xtol + rtol * |root|``.

    Returns ``(root, iterations, function_calls)``.  Raises ``ValueError`` when ``f(a)`` and ``f(b)`` have the
    same sign and ``ArithmeticError`` when ``maxiter`` iterations do not
    converge.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < 4 * _EPMACH:
        raise ValueError(f"rtol too small ({rtol:g} < {4 * _EPMACH:g})")
    if maxiter < 1:
        raise ValueError("maxiter must be greater than 0")
    xpre = float(a)
    xcur = float(b)
    xblk = 0.0
    fblk = 0.0
    spre = 0.0
    scur = 0.0

    fpre = f(xpre)
    fcur = f(xcur)
    funcalls = 2
    if fpre == 0:
        return xpre, 0, funcalls
    if fcur == 0:
        return xcur, 0, funcalls
    if _signbit(fpre) == _signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for iterations in range(1, maxiter + 1):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre = xcur
            xcur = xblk
            xblk = xpre

            fpre = fcur
            fcur = fblk
            fblk = fpre

        # the tolerance is 2*delta
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur, iterations, funcalls

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta

        fcur = f(xcur)
        funcalls += 1
    raise ArithmeticError(
        f"brentq: no convergence after {maxiter} iterations (x = {xcur!r})")

