#!/usr/bin/env python3
"""Self-test for tools/lint_invariants.py.

Runs the linter against the fixture trees under tools/lint_fixtures/: the
`clean` fixture must pass, and each broken fixture must fail with a message
that actually points at the violation (name, file, and what to do), not a
generic "lint failed". Keeping the messages pointed is part of the
contract — a linter nobody can act on gets deleted.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
LINTER = os.path.join(HERE, 'lint_invariants.py')
FIXTURES = os.path.join(HERE, 'lint_fixtures')

# fixture -> (expected exit code, substrings that must appear in stdout)
CASES = {
    'clean': (0, ['lint_invariants: OK']),
    'duplicate_fault_point': (1, [
        'fault-points: "demo.stage" is registered 2 times',
        'src/demo.cc:3',
        'src/demo.cc:4',
        'exactly once',
    ]),
    'missing_fault_point_doc': (1, [
        'fault-points: "demo.undocumented"',
        'src/demo.cc:3',
        'not documented in the README fault-point table',
        'lint:fault-points markers',
    ]),
    'undocumented_metric': (1, [
        'metrics: "demo.hidden_rows"',
        'src/demo.cc:3',
        'missing from the README metrics table',
    ]),
    'unpolled_charge': (1, [
        'charge-polls:',
        'src/demo.cc:3',
        '"FillBuffer"',
        'never polls the ExecContext',
    ]),
    'raw_mutex': (1, [
        'sync-usage:',
        'raw std::mutex',
        'common/sync.h',
    ]),
    'raw_tag_probe': (1, [
        'tag-probe:',
        'src/demo.cc:9',
        'TagMatch16',
        'common/flat_table.h',
    ]),
}


def main():
    failures = []
    for fixture, (want_code, want_substrings) in sorted(CASES.items()):
        root = os.path.join(FIXTURES, fixture)
        proc = subprocess.run(
            [sys.executable, LINTER, '--root', root],
            capture_output=True, text=True)
        if proc.returncode != want_code:
            failures.append(
                f'{fixture}: exit {proc.returncode}, want {want_code}\n'
                f'--- stdout ---\n{proc.stdout}--- stderr ---\n{proc.stderr}')
            continue
        for substring in want_substrings:
            if substring not in proc.stdout:
                failures.append(
                    f'{fixture}: output lacks {substring!r}\n'
                    f'--- stdout ---\n{proc.stdout}')

    # The raw_mutex fixture must flag both the member declaration and the
    # lock_guard use — one diagnostic per offending line.
    proc = subprocess.run(
        [sys.executable, LINTER, '--root',
         os.path.join(FIXTURES, 'raw_mutex')],
        capture_output=True, text=True)
    sync_lines = [l for l in proc.stdout.splitlines()
                  if l.startswith('sync-usage:')]
    if len(sync_lines) < 2:
        failures.append(
            f'raw_mutex: expected >=2 sync-usage diagnostics '
            f'(declaration and lock_guard), got {len(sync_lines)}\n'
            f'--- stdout ---\n{proc.stdout}')

    if failures:
        print(f'{len(failures)} self-test failure(s):')
        for f in failures:
            print(f)
        return 1
    print(f'lint_invariants_test: {len(CASES)} fixtures OK')
    return 0


if __name__ == '__main__':
    sys.exit(main())
