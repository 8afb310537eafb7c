"""The line-oriented repo-convention rules, ported from the single-file
linter onto the shared lexer. Behavior is unchanged -- the seeded fixtures
under tests/static/lint_fixtures/ prove it via --self-test -- only the
stripping now happens once per file (engine.SourceFile) instead of once
per rule per file.
"""

import os
import re

from .engine import Diagnostic, FileRule


class PatternRule(FileRule):
    """One compiled pattern searched per stripped code line."""

    pattern = None
    message = ""

    def check_file(self, sf):
        out = []
        for lineno, line in enumerate(sf.code_lines, 1):
            if self.pattern.search(line):
                out.append(Diagnostic(sf.rel, lineno, self.id, self.message))
        return out


class SteadyClockRule(PatternRule):
    id = "steady-clock"
    doc = ("system_clock/high_resolution_clock or C wall-clock calls "
           "(gettimeofday/clock_gettime/timespec_get) outside support/stopwatch.hpp")
    allowlist = frozenset({os.path.join("src", "support", "stopwatch.hpp")})
    # Both the std::chrono wall clocks and the C wall-clock APIs: arrival
    # traces and latency replays are timestamped in steady-clock seconds
    # (relative to a run anchor), so any wall-clock read in timing code
    # breaks reproducibility. clock_gettime is flagged regardless of
    # clockid -- CLOCK_MONOTONIC reads belong behind the Stopwatch too.
    pattern = re.compile(
        r"\b(system_clock|high_resolution_clock)\b"
        r"|\b(gettimeofday|clock_gettime|timespec_get)\s*\(")
    message = ("use the steady-clock Stopwatch (support/stopwatch.hpp); wall "
               "clocks make timings incomparable")


class RawMutexRule(PatternRule):
    id = "raw-mutex"
    doc = "raw std::mutex/lock/condition_variable outside support/mutex.hpp"
    allowlist = frozenset({os.path.join("src", "support", "mutex.hpp")})
    pattern = re.compile(
        r"\bstd\s*::\s*(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
        r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
        r"shared_lock|condition_variable(?:_any)?)\b")
    message = ("use the annotated Mutex/LockGuard/CondVar from "
               "support/mutex.hpp so -Wthread-safety can check the locking")


class PrintfRule(PatternRule):
    id = "printf"
    doc = "printf-family output in library code (snprintf is allowed)"
    scope = ("src",)
    pattern = re.compile(
        r"\b(printf|fprintf|sprintf|vprintf|vfprintf|vsprintf|puts|putchar)\s*\(")
    message = ("library code must not print; report through return values or "
               "support/json.hpp / support/table.hpp")


class UnorderedIterationRule(FileRule):
    id = "unordered-iteration"
    doc = "range-for over a std::unordered_{map,set} declared in the same file"

    DECL_RE = re.compile(r"\bstd\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<")
    RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;()]*?:\s*(?:this\s*->\s*)?([A-Za-z_]\w*)\s*\)")

    @classmethod
    def unordered_names(cls, code):
        """Identifiers declared with an unordered container type in this
        file. Angle brackets are matched by nesting depth so nested value
        types (e.g. unordered_map<K, vector<V>>) do not derail the
        declarator."""
        names = set()
        for match in cls.DECL_RE.finditer(code):
            i, depth = match.end(), 1
            while i < len(code) and depth:
                depth += {"<": 1, ">": -1}.get(code[i], 0)
                i += 1
            declarator = re.match(r"\s*([A-Za-z_]\w*)\s*[;={(]", code[i:])
            if declarator:
                names.add(declarator.group(1))
        return names

    def check_file(self, sf):
        hashed = self.unordered_names(sf.code)
        if not hashed:
            return []
        out = []
        for lineno, line in enumerate(sf.code_lines, 1):
            for match in self.RANGE_FOR_RE.finditer(line):
                if match.group(1) in hashed:
                    out.append(Diagnostic(
                        sf.rel, lineno, self.id,
                        f"'{match.group(1)}' is an unordered container; "
                        "hash-order iteration leaks nondeterminism into "
                        "output -- iterate a sorted copy"))
        return out


class PragmaOnceRule(FileRule):
    id = "pragma-once"
    doc = "every .hpp must contain #pragma once"

    def check_file(self, sf):
        if not sf.rel.endswith((".hpp", ".h", ".hh")):
            return []
        if "#pragma once" in sf.code or sf.file_allowed(self.id):
            return []
        return [Diagnostic(sf.rel, 1, self.id, "header is missing #pragma once")]


class CvWaitPredicateRule(FileRule):
    id = "cv-wait-predicate"
    doc = "CondVar .wait() without an 'unblocked by:' comment within 3 lines"
    scope = ("src",)
    # The annotated wrapper itself adapts std::condition_variable_any; its
    # wait() is the primitive the contract is ABOUT, not a use of it.
    allowlist = frozenset({os.path.join("src", "support", "mutex.hpp")})

    # A `.wait(` on a condition variable (the repo convention names them
    # *cv*: work_cv_, done_cv_, idle_cv_) must sit within three raw lines of
    # an `unblocked by:` comment enumerating every notifying path --
    # including the shutdown/cancel one, which is the waker people forget
    # and the reason drain()/shutdown() hangs happen. The receiver-name
    # match keeps unrelated waits (service.wait(ticket), thread.join-style
    # APIs) out of scope. Checked against the RAW text (the doc lives in a
    # comment, which the lexer strips from code_lines), unlike the pattern
    # rules.
    WAIT_RE = re.compile(r"\b[A-Za-z_]\w*cv\w*\s*\.\s*wait\s*\(")
    DOC_WINDOW = 3  # raw lines above the wait that may carry the doc
    DOC = "unblocked by"

    def check_file(self, sf):
        out = []
        for lineno, line in enumerate(sf.code_lines, 1):
            if not self.WAIT_RE.search(line):
                continue
            window = sf.raw_lines[max(0, lineno - 1 - self.DOC_WINDOW):lineno]
            if not any(self.DOC in raw for raw in window):
                out.append(Diagnostic(
                    sf.rel, lineno, self.id,
                    "CondVar wait without a documented wake contract; add an "
                    "'unblocked by:' comment within 3 lines above naming "
                    "every notifying path, including the shutdown/cancel one"))
        return out


TOKEN_RULES = [
    SteadyClockRule(),
    RawMutexRule(),
    PrintfRule(),
    UnorderedIterationRule(),
    PragmaOnceRule(),
    CvWaitPredicateRule(),
]
