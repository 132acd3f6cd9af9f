"""Read a tier-1 junit report and fail on anything but the known failure.

Usage: python .github/check_tier1.py JUNIT_XML

The tier-1 suite fails by design on criterion 2's verbatim tolerance clause
(see README), so its own exit status is 1 on every run. This check exits 0
only when that test is the one failure: any other failure or error (a
collection error included) exits 1, and so does criterion 2 passing or not
running at all, since the README would then describe it wrongly.
"""

import sys
import xml.etree.ElementTree as ET

KNOWN_FAILURE = "test_criterion_2_quadrature_equivalence"


def problems(path):
    """Messages for every way the report differs from the expected one."""
    out, known_failed = [], False
    for case in ET.parse(path).getroot().iter("testcase"):
        name = case.get("name")
        bad = [child.tag for child in case if child.tag in ("failure", "error")]
        if name == KNOWN_FAILURE and bad == ["failure"]:
            known_failed = True
        elif bad:
            out.append(f"{case.get('classname')}::{name}: {', '.join(bad)}")
    if not known_failed:
        out.append(f"{KNOWN_FAILURE} did not fail: it is documented in the README "
                   "as failing by design; update the README and this check")
    return out


def main(path):
    found = problems(path)
    for line in found:
        print(line)
    if not found:
        print(f"tier-1: the only failure is the by-design {KNOWN_FAILURE}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
