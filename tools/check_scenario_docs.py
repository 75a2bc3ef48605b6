#!/usr/bin/env python3
"""Lint docs/SCENARIOS.md against the scenario parser's schema.

Runs `abp_cli --print-schema-fields` (the authoritative field list, generated
from the same field descriptions the loader walks) and verifies that every
reported field path appears in backticks somewhere in docs/SCENARIOS.md.
Fails listing the missing paths, so the schema reference cannot silently
drift from what the loader accepts.

Usage: tools/check_scenario_docs.py [path/to/abp_cli]
       (default: build/abp_cli, run from the repo root)
"""

import re
import subprocess
import sys
from pathlib import Path


def main() -> int:
    repo = Path(__file__).resolve().parent.parent
    cli = Path(sys.argv[1]) if len(sys.argv) > 1 else repo / "build" / "abp_cli"
    doc = repo / "docs" / "SCENARIOS.md"

    if not cli.exists():
        print(f"check_scenario_docs: abp_cli not found at {cli} (build first)",
              file=sys.stderr)
        return 2
    if not doc.exists():
        print(f"check_scenario_docs: {doc} not found", file=sys.stderr)
        return 2

    proc = subprocess.run([str(cli), "--print-schema-fields"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"check_scenario_docs: {cli} --print-schema-fields failed:\n"
              f"{proc.stderr}", file=sys.stderr)
        return 2
    paths = [line.strip() for line in proc.stdout.splitlines() if line.strip()]
    if len(paths) < 50:
        print(f"check_scenario_docs: only {len(paths)} schema paths reported — "
              "that cannot be right", file=sys.stderr)
        return 2

    # Every inline code span in the doc. Fenced ``` blocks are removed first:
    # their triple backticks would otherwise mispair the inline-span regex for
    # the rest of the file. A path may appear standalone
    # (`demand.segments[].duration_s`) or inside a larger span; substring
    # match within code spans keeps prose mentions honest.
    text = doc.read_text(encoding="utf-8")
    text = re.sub(r"^```.*?^```$", "", text, flags=re.MULTILINE | re.DOTALL)
    spans = re.findall(r"`([^`\n]+)`", text)
    blob = "\n".join(spans)

    missing = [p for p in paths if p not in blob]
    if missing:
        print(f"docs/SCENARIOS.md is missing {len(missing)} of {len(paths)} "
              "schema field paths (each must appear in backticks):",
              file=sys.stderr)
        for p in missing:
            print(f"  {p}", file=sys.stderr)
        return 1

    print(f"docs/SCENARIOS.md covers all {len(paths)} schema field paths.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
