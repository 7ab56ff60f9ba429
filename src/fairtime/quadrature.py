"""Adaptive Gauss-Kronrod quadrature with Wynn-epsilon extrapolation (QAGS).

A port of QUADPACK's ``dqagse`` routine and its helpers ``dqk21`` (21-point
Gauss-Kronrod rule), ``dqpsrt`` (ordering of the error estimates) and
``dqelg`` (epsilon algorithm), from Piessens, de Doncker-Kapenga, Ueberhuber
and Kahaner, *QUADPACK* (Springer, 1983).  It is the routine behind
``scipy.integrate.quad`` on a finite interval.  Each routine follows the
Fortran statement by statement, with the same floating-point operations in the
same order, and comparisons are written so that a NaN takes the branch the
Fortran takes; the port therefore returns the same doubles as ``quad`` at its
default ``epsrel`` and ``limit``.  The work arrays keep QUADPACK's 1-based
indices, and their slot 0 is unused.

Two statements of ``dqelg`` are left out because ``qags`` can never reach
them.  Its return for a table of fewer than 3 elements: the driver raises
``numrl2`` from 2 before every call, and a table cut to 1 element sets
``noext``, which ends the extrapolation.  Its shift of a full table
(``n == limexp``): ``dqelg`` runs at most once per subdivision, for ``last``
3..49, so the table never holds more than 49 of ``_LIMEXP``'s 50 elements.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

EPMACH = sys.float_info.epsilon  # d1mach(4)
UFLOW = sys.float_info.min       # d1mach(1)
OFLOW = sys.float_info.max       # d1mach(2)
EPSREL = 1.49e-8                 # quad's default relative tolerance
LIMIT = 50                       # quad's default number of subintervals
_LIMEXP = 50                     # dqelg's largest epsilon table (rlist2's size)

# Kronrod abscissae, Kronrod weights and Gauss weights of the 21-point rule
_XGK = (None,
        0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
        0.0)
_WGK = (None,
        0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208034440463, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (None,
       0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)


def _dqk21(f: Callable[[float], float], a: float, b: float):
    """21-point Kronrod estimate of the integral over [a, b]; returns
    (result, abserr, resabs, resasc)."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    resg = 0.0
    fc = f(centr)
    resk = _WGK[11] * fc
    resabs = abs(resk)
    fv1 = [0.0] * 11
    fv2 = [0.0] * 11
    for j in (2, 4, 6, 8, 10, 1, 3, 5, 7, 9):
        absc = hlgth * _XGK[j]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[j] = fval1
        fv2[j] = fval2
        fsum = fval1 + fval2
        if j % 2 == 0:
            resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fval1) + abs(fval2))
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
    if resabs > UFLOW / (50.0 * EPMACH):
        abserr = max((EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _dqpsrt(last: int, maxerr: int, elist: list, iord: list, nrmax: int):
    """Keep iord listing the subintervals by decreasing error estimate; returns
    the next subinterval to bisect, its error and the updated nrmax."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        # subdivision raised the error: move errmax up past nrmax if needed
        errmax = elist[maxerr]
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        # only as many entries as subdivisions remain are kept in order
        jupbn = last
        if last > LIMIT // 2 + 2:
            jupbn = LIMIT + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                # insert errmax top-down, then errmin bottom-up
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


def _dqelg(n: int, epstab: list, res3la: list, nres: int):
    """Wynn's epsilon algorithm on the table epstab[1..n], which holds n
    successive area estimates; returns (n, result, abserr, nres)."""
    nres += 1
    abserr = OFLOW
    result = epstab[n]
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
            result = res
            abserr = err2 + err3
            return n, result, max(abserr, 5.0 * EPMACH * abs(result)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 1e-4:
            # irregular behaviour: drop the rest of the table
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 = k1 - 2
        error = err2 + abs(res - e2) + err3
        if not error > abserr:
            abserr = error
            result = res
    # shift the table
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib = ib + 2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx = indx + 1
    if nres < 4:
        res3la[nres] = result
        abserr = OFLOW
    else:
        abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
        res3la[1] = res3la[2]
        res3la[2] = res3la[3]
        res3la[3] = result
    return n, result, max(abserr, 5.0 * EPMACH * abs(result)), nres


def qags(f: Callable[[float], float], a: float, b: float, epsabs: float):
    """Integral of f over the finite interval [a, b] to within
    max(epsabs, EPSREL * |integral|), epsabs > 0.

    Returns (result, abserr, ier) as QUADPACK's dqagse does: ier 0 on
    success, 1 when LIMIT subintervals were used, 2 on roundoff error, 3 on
    bad integrand behaviour at a point, 4 when the extrapolation did not
    converge, 5 when the integral is probably divergent.
    """
    alist = [0.0] * (LIMIT + 1)
    blist = [0.0] * (LIMIT + 1)
    rlist = [0.0] * (LIMIT + 1)
    elist = [0.0] * (LIMIT + 1)
    iord = [0] * (LIMIT + 1)
    rlist2 = [0.0] * (_LIMEXP + 3)
    res3la = [0.0] * 4
    ier = 0
    alist[1] = a
    blist[1] = b

    # first approximation to the integral
    ierro = 0
    result, abserr, defabs, resabs = _dqk21(f, a, b)
    dres = abs(result)
    errbnd = max(epsabs, EPSREL * dres)
    last = 1
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    if abserr <= 100.0 * EPMACH * defabs and abserr > errbnd:
        ier = 2
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, ier

    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    iroff1 = iroff2 = iroff3 = 0
    ksgn = -1
    if dres >= (1.0 - 50.0 * EPMACH) * defabs:
        ksgn = 1
    small = erlarg = ertest = correc = 0.0

    summed = False  # leave by QUADPACK's label 115: result is the sum of rlist
    for last in range(2, LIMIT + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, resabs, defab1 = _dqk21(f, a1, b1)
        area2, error2, resabs, defab2 = _dqk21(f, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        errbnd = max(epsabs, EPSREL * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == LIMIT:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * EPMACH) * (abs(a2) + 1000.0 * UFLOW):
            ier = 4
        # the half with the larger error estimate takes slot maxerr
        halves = [(a1, b1, area1, error1), (a2, b2, area2, error2)]
        if error2 > error1:
            halves.reverse()
        for k, half in zip((maxerr, last), halves):
            alist[k], blist[k], rlist[k], elist[k] = half
        maxerr, errmax, nrmax = _dqpsrt(last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            summed = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
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
            # extrapolate only once the next interval to bisect is the smallest
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # the smallest interval has the largest error: bisect the larger
            # intervals first, as long as they hold the largest errors
            jupbnd = last
            if last > 2 + LIMIT // 2:
                jupbnd = LIMIT + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax = nrmax + 1
            if larger:
                continue
        numrl2 = numrl2 + 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _dqelg(numrl2, rlist2, res3la, nres)
        ktmin = ktmin + 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, EPSREL * abs(reseps))
            if abserr <= ertest:
                break
        # prepare bisection of the smallest interval
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

    # set the final result and error estimate (labels 100-130)
    divergence_test = not summed
    if not summed:
        if abserr == OFLOW:
            summed = True
        elif ier + ierro != 0:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                summed = abserr / abs(result) > errsum / abs(area)
            elif abserr > errsum:
                summed = True
            elif area == 0.0:
                divergence_test = False
    if summed:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    elif divergence_test and not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
        # Fortran divides by a zero area too; the sign of its infinity
        # cannot change the outcome, and 0/0 gives NaN
        ratio = result / area if area != 0.0 else (math.inf if abs(result) > 0.0 else math.nan)
        if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
            ier = 6
    if ier > 2:
        ier = ier - 1
    return result, abserr, ier
