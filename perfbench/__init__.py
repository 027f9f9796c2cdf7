"""End-to-end benchmark of ``repro.api.open_session``.

Run ``python3 perfbench/run.py --help`` from the repository root; the
package README explains the workloads, the metrics and the trace.
"""
