"""Tests of the benchmark's output checks.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

REPORT = """652348 packets, 49 outstations, 4 servers

| Flows            | Count | Share |
------------------------------------
| short-lived <1s  | 8412  | 97.3% |
| short-lived >=1s | 94    | 1.1%  |
| long-lived       | 136   | 1.6%  |

compliance: strict parsing rejects these outstations entirely:
  10.1.9.28  -> dialect cot1 (4333 I-frames recovered)
  10.1.14.37  -> dialect ioa2 (4953 I-frames recovered)

ASDU typeIDs:
| TypeID | Count | Share   |
----------------------------
| I36    | 90809 | 67.371% |

sessions: 137
"""

SUMMARY = {"event": "summary", "packets": 651865, "outstations": 49, "sessions": 583,
           "chains": 296, "live_flows": 99, "evicted_flows": 9570, "windows_closed": 0}


def final(**changes):
    report = {"source": 0, "transport": "pcap", "status": "drained", "packets": 651865,
              "summary": dict(SUMMARY)}
    report.update(changes)
    return report


class AnalyzeCheck(unittest.TestCase):
    def check(self, text, code=0):
        return run.check_analyze(code, text, packets=652348, flows=8642)

    def test_accepts_a_correct_report(self):
        self.assertEqual(self.check(REPORT), [])

    def test_rejects_a_doctored_packet_count(self):
        self.assertTrue(self.check(REPORT.replace("652348 packets", "652347 packets")))

    def test_rejects_a_missing_dialect(self):
        self.assertTrue(self.check(REPORT.replace("dialect ioa2", "dialect standard")))
        self.assertTrue(self.check(REPORT.replace("10.1.9.28", "10.1.9.29")))

    def test_rejects_a_flow_count_that_differs_from_the_flow_table(self):
        self.assertTrue(self.check(REPORT.replace("| 94    |", "| 95    |")))
        self.assertTrue(self.check(REPORT.replace("| long-lived       | 136   | 1.6%  |\n", "")))

    def test_rejects_a_failed_exit_or_no_sessions(self):
        self.assertTrue(self.check(REPORT, code=1))
        self.assertTrue(self.check(REPORT.replace("sessions: 137", "sessions: 0")))


class SourceCheck(unittest.TestCase):
    def check(self, report):
        return run.check_source(report, records=651865, reference=dict(SUMMARY))

    def test_accepts_a_drained_source_matching_analyze_follow(self):
        self.assertEqual(self.check(final()), [])

    def test_rejects_a_quarantined_source(self):
        self.assertTrue(self.check(final(status="quarantined")))

    def test_rejects_lost_records(self):
        self.assertTrue(self.check(final(packets=651864)))

    def test_rejects_a_summary_that_differs_from_analyze_follow(self):
        self.assertTrue(self.check(final(summary=dict(SUMMARY, sessions=582))))
        self.assertTrue(self.check(final(summary=None)))

    def test_rejects_a_source_that_never_reported(self):
        self.assertTrue(self.check(None))


class Units(unittest.TestCase):
    def test_per_layer_units_match_the_benchmark_definition(self):
        here = os.path.dirname(os.path.abspath(__file__))
        with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
            spec = json.load(f)
        for m in spec["per_layer"]:
            self.assertEqual(run.unit_of(m["name"]), m["unit"], m["name"])


if __name__ == "__main__":
    unittest.main()
