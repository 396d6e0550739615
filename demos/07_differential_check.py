"""Run the built-in differential checker on a batch of random ideals.

Every power computed by the fast paths (decomposed, assembled) is compared
against an independent reference: the naive product for small exponents and
the decomposed construction beyond that.  Any mismatch is reported with the
exact exponent and method involved.

Run with: python demos/07_differential_check.py
"""

from stairpow import check_corpus

reports = check_corpus(10, seed=42)

total = sum(len(r.records) for r in reports)
mismatches = sum(len(r.failures) for r in reports)
for report in reports:
    for line in report.lines():
        print(line)
print(f"\n{len(reports)} ideals, {total} comparisons, {mismatches} mismatches")
