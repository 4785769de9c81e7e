#!/usr/bin/env python3
"""Project invariant linter for the graphgen tree.

Checks cross-cutting contracts that the compiler cannot see:

  1. fault-points   Every GRAPHGEN_FAULT_POINT name is registered exactly
                    once in src/ and documented in the README fault-point
                    table (both directions).
  2. metrics        Every metric name fetched from the obs registry
                    (GetCounter/GetGauge/GetHistogram) appears in the README
                    metrics table, and every documented name exists in code.
  3. charge-polls   Any function that charges the per-request MemoryBudget
                    (ctx.Charge / ScopedCharge::Acquire / TryCharge) also
                    polls the ExecContext (Check / Continue /
                    CancelRequested) so a budgeted allocation loop can't
                    outrun cancellation.
  4. sync-usage     No raw std:: synchronization primitives outside
                    common/sync.h: every lock in src/ goes through the
                    annotated Mutex/SharedMutex wrappers so Clang
                    thread-safety analysis sees it.
  5. tag-probe      The hash-table tag primitives (TagMatch16, TagEmpty16,
                    TagOfHash) appear only in common/simd.h and
                    common/flat_table.h: every open-addressing table
                    probes through the one FlatTable core instead of
                    hand-rolling its own probe loop.

Exit code 0 = clean, 1 = violations (printed one per line), 2 = usage.

Run from anywhere: `python3 tools/lint_invariants.py [--root DIR]`.
"""

import argparse
import os
import re
import sys

FAULT_POINT_RE = re.compile(r'GRAPHGEN_FAULT_POINT\("([^"]+)"\)')
METRIC_RE = re.compile(r'Get(?:Counter|Gauge|Histogram)\("([^"]+)"\)')
# A backticked dotted name inside the README marker sections.
DOC_NAME_RE = re.compile(r'`([a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+)`')

CHARGE_RE = re.compile(r'\.(?:Charge|TryCharge|Acquire)\s*\(')
# What counts as "polling": a direct ExecContext check, an AbortSlot poll,
# or delegating the loop to StridedRun (which polls at stride boundaries).
POLL_RE = re.compile(
    r'\.(?:Check|Continue|CancelRequested|Failed)\s*\(|'
    r'\b(?:Continue|StridedRun)\s*\(')

# Raw primitives that must not appear outside common/sync.h. std::atomic is
# fine (lock-free); everything lock-shaped must go through the wrappers.
RAW_SYNC_RE = re.compile(
    r'std::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|'
    r'condition_variable(?:_any)?|lock_guard|scoped_lock|unique_lock|'
    r'shared_lock)\b')

SYNC_ALLOWED = {os.path.join('common', 'sync.h')}

TAG_PROBE_RE = re.compile(r'\b(?:TagMatch16|TagEmpty16|TagOfHash)\b')
TAG_PROBE_ALLOWED = {
    os.path.join('common', 'simd.h'),
    os.path.join('common', 'flat_table.h'),
}
# cancel.h/cancel.cc define Charge/TryCharge/Check themselves; the
# implementation of the contract is not a client of it.
CHARGE_CHECK_EXEMPT = {
    os.path.join('common', 'cancel.h'),
    os.path.join('common', 'cancel.cc'),
}


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving newlines so
    line numbers in diagnostics stay accurate."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == '/' and i + 1 < n and text[i + 1] == '/':
            j = text.find('\n', i)
            if j == -1:
                j = n
            out.append(' ' * (j - i))
            i = j
        elif c == '/' and i + 1 < n and text[i + 1] == '*':
            j = text.find('*/', i + 2)
            j = n if j == -1 else j + 2
            chunk = text[i:j]
            out.append(''.join(ch if ch == '\n' else ' ' for ch in chunk))
            i = j
        elif c in '"\'':
            quote = c
            j = i + 1
            while j < n:
                if text[j] == '\\':
                    j += 2
                    continue
                if text[j] == quote:
                    j += 1
                    break
                j += 1
            out.append(quote + ' ' * (j - i - 2) + quote if j - i >= 2
                       else text[i:j])
            i = j
        else:
            out.append(c)
            i += 1
    return ''.join(out)


def strip_comments(text):
    """Blanks out // and /* */ comments only; string literals survive (the
    fault-point and metric names live in literals). Preserves newlines."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == '/' and i + 1 < n and text[i + 1] == '/':
            j = text.find('\n', i)
            if j == -1:
                j = n
            out.append(' ' * (j - i))
            i = j
        elif c == '/' and i + 1 < n and text[i + 1] == '*':
            j = text.find('*/', i + 2)
            j = n if j == -1 else j + 2
            chunk = text[i:j]
            out.append(''.join(ch if ch == '\n' else ' ' for ch in chunk))
            i = j
        elif c in '"\'':
            quote = c
            j = i + 1
            while j < n:
                if text[j] == '\\':
                    j += 2
                    continue
                if text[j] == quote:
                    j += 1
                    break
                j += 1
            out.append(text[i:j])
            i = j
        else:
            out.append(c)
            i += 1
    return ''.join(out)


def iter_source_files(src_root):
    for dirpath, _, names in os.walk(src_root):
        for name in sorted(names):
            if name.endswith(('.cc', '.h')):
                yield os.path.join(dirpath, name)


def read(path):
    with open(path, encoding='utf-8') as f:
        return f.read()


def relpath(path, root):
    return os.path.relpath(path, root)


def extract_marked_section(readme_text, marker):
    """Returns the text between <!-- lint:MARKER:begin --> and :end."""
    begin = f'<!-- lint:{marker}:begin -->'
    end = f'<!-- lint:{marker}:end -->'
    i = readme_text.find(begin)
    j = readme_text.find(end)
    if i == -1 or j == -1 or j < i:
        return None
    return readme_text[i + len(begin):j]


def check_fault_points(src_root, readme_text, root, errors):
    registrations = {}  # name -> [(file, line)]
    for path in iter_source_files(src_root):
        # Comments are stripped but string literals kept: the name lives in
        # a literal, and doc-comment examples must not count as sites.
        clean = strip_comments(read(path))
        for lineno, line in enumerate(clean.splitlines(), 1):
            for m in FAULT_POINT_RE.finditer(line):
                registrations.setdefault(m.group(1), []).append(
                    (relpath(path, root), lineno))

    for name, sites in sorted(registrations.items()):
        if len(sites) > 1:
            where = ', '.join(f'{f}:{ln}' for f, ln in sites)
            errors.append(
                f'fault-points: "{name}" is registered {len(sites)} times '
                f'({where}); every fault point must be registered exactly '
                f'once so arming it fires one site')

    section = extract_marked_section(readme_text, 'fault-points')
    if section is None:
        errors.append(
            'fault-points: README.md has no '
            '<!-- lint:fault-points:begin/end --> table; the fault-point '
            'reference is load-bearing documentation')
        return
    documented = set(DOC_NAME_RE.findall(section))
    for name in sorted(set(registrations) - documented):
        f, ln = registrations[name][0]
        errors.append(
            f'fault-points: "{name}" ({f}:{ln}) is not documented in the '
            f'README fault-point table; add a row between the '
            f'lint:fault-points markers')
    for name in sorted(documented - set(registrations)):
        errors.append(
            f'fault-points: README documents "{name}" but no '
            f'GRAPHGEN_FAULT_POINT registers it; remove the row or restore '
            f'the point')


def check_metrics(src_root, readme_text, root, errors):
    used = {}  # name -> (file, line)
    for path in iter_source_files(src_root):
        clean = strip_comments(read(path))
        for lineno, line in enumerate(clean.splitlines(), 1):
            for m in METRIC_RE.finditer(line):
                used.setdefault(m.group(1), (relpath(path, root), lineno))

    section = extract_marked_section(readme_text, 'metrics')
    if section is None:
        errors.append(
            'metrics: README.md has no <!-- lint:metrics:begin/end --> '
            'table; the metrics reference is load-bearing documentation')
        return
    documented = set(DOC_NAME_RE.findall(section))
    for name in sorted(set(used) - documented):
        f, ln = used[name]
        errors.append(
            f'metrics: "{name}" ({f}:{ln}) is missing from the README '
            f'metrics table; every registry name must be documented between '
            f'the lint:metrics markers')
    for name in sorted(documented - set(used)):
        errors.append(
            f'metrics: README documents "{name}" but nothing in src/ '
            f'records it; remove the row or restore the instrumentation')


def split_functions(clean_text):
    """Yields (name, start_line, body_text) for every brace-balanced
    function-looking definition. Heuristic, not a parser: a definition is a
    `name(...)` whose next non-whitespace token chain reaches `{` without a
    `;` (skipping const/noexcept/override/initializer lists)."""
    lines = clean_text.splitlines()
    text = '\n'.join(lines)
    # Candidate heads: identifier( ... ) possibly spanning lines, followed
    # (after qualifiers / ctor-initializers) by '{'.
    head_re = re.compile(r'([A-Za-z_][A-Za-z0-9_:]*)\s*\(')
    results = []
    i = 0
    n = len(text)
    while i < n:
        m = head_re.search(text, i)
        if not m:
            break
        name = m.group(1)
        # Skip control-flow and declaration keywords.
        last_token = name.split('::')[-1]
        if last_token in ('if', 'for', 'while', 'switch', 'catch', 'return',
                          'sizeof', 'alignof', 'static_assert', 'defined',
                          'assert', 'new', 'delete'):
            i = m.end()
            continue
        # Find matching ')' for the parameter list.
        depth = 1
        j = m.end()
        while j < n and depth:
            if text[j] == '(':
                depth += 1
            elif text[j] == ')':
                depth -= 1
            j += 1
        if depth:
            break
        # Walk forward: a ';' before '{' means declaration/expression.
        k = j
        while k < n and text[k] not in ';{}':
            k += 1
        if k >= n or text[k] != '{':
            i = j
            continue
        # Between ')' and '{' only definition glue may appear (qualifiers,
        # a trailing return type, a ctor-initializer list). Anything else —
        # e.g. `.empty()) {` from a call inside an if-condition — means the
        # candidate was an expression, not a definition.
        glue = text[j:k]
        if not re.fullmatch(
                r'(?:\s|const|noexcept|final|override|mutable|'
                r'->\s*[\w:<>,~&*\[\]\s]+|:\s*[^{;]*)*', glue):
            i = j
            continue
        # Capture brace-balanced body.
        depth = 1
        b = k + 1
        while b < n and depth:
            if text[b] == '{':
                depth += 1
            elif text[b] == '}':
                depth -= 1
            b += 1
        start_line = text.count('\n', 0, m.start()) + 1
        results.append((name, start_line, text[k:b]))
        i = j  # continue after the parameter list: nested lambdas get their
        #        own entries, and the enclosing body still contains them.
    return results


def check_charge_polls(src_root, root, errors):
    for path in iter_source_files(src_root):
        rel = relpath(path, root)
        rel_in_src = os.path.relpath(path, src_root)
        if rel_in_src in CHARGE_CHECK_EXEMPT:
            continue
        clean = strip_comments_and_strings(read(path))
        if not CHARGE_RE.search(clean):
            continue
        for name, line, body in split_functions(clean):
            if CHARGE_RE.search(body) and not POLL_RE.search(body):
                errors.append(
                    f'charge-polls: {rel}:{line}: function "{name}" charges '
                    f'the MemoryBudget but never polls the ExecContext '
                    f'(ctx.Check()/AbortSlot::Continue()); a budgeted '
                    f'allocation loop must also be cancellable')


def check_sync_usage(src_root, root, errors):
    for path in iter_source_files(src_root):
        rel_in_src = os.path.relpath(path, src_root)
        if rel_in_src in SYNC_ALLOWED:
            continue
        clean = strip_comments_and_strings(read(path))
        for lineno, line in enumerate(clean.splitlines(), 1):
            m = RAW_SYNC_RE.search(line)
            if m:
                errors.append(
                    f'sync-usage: {relpath(path, root)}:{lineno}: raw '
                    f'{m.group(0)} outside common/sync.h; use the annotated '
                    f'Mutex/SharedMutex/MutexLock/CondVar wrappers so '
                    f'thread-safety analysis sees the lock')


def check_tag_probe_usage(src_root, root, errors):
    for path in iter_source_files(src_root):
        rel_in_src = os.path.relpath(path, src_root)
        if rel_in_src in TAG_PROBE_ALLOWED:
            continue
        clean = strip_comments_and_strings(read(path))
        for lineno, line in enumerate(clean.splitlines(), 1):
            m = TAG_PROBE_RE.search(line)
            if m:
                errors.append(
                    f'tag-probe: {relpath(path, root)}:{lineno}: '
                    f'{m.group(0)} outside common/flat_table.h; build the '
                    f'table on the FlatTable core (payload arrays plus an '
                    f'equality callable) instead of a private probe loop')


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument('--root', default=None,
                        help='repo root (default: parent of this script)')
    args = parser.parse_args(argv)

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    src_root = os.path.join(root, 'src')
    readme = os.path.join(root, 'README.md')
    if not os.path.isdir(src_root):
        print(f'lint_invariants: no src/ under {root}', file=sys.stderr)
        return 2
    readme_text = read(readme) if os.path.exists(readme) else ''

    errors = []
    check_fault_points(src_root, readme_text, root, errors)
    check_metrics(src_root, readme_text, root, errors)
    check_charge_polls(src_root, root, errors)
    check_sync_usage(src_root, root, errors)
    check_tag_probe_usage(src_root, root, errors)

    if errors:
        for e in errors:
            print(e)
        print(f'lint_invariants: {len(errors)} violation(s)', file=sys.stderr)
        return 1
    print('lint_invariants: OK')
    return 0


if __name__ == '__main__':
    sys.exit(main(sys.argv[1:]))
