"""Unit tests for the tools/lint package (stdlib unittest; CI's lint job
runs `python3 -m unittest tools.lint.test_lint -v` before the tree scan).

These cover what the fixture self-test cannot: lexer edge cases on
synthetic snippets (raw strings, digraphs, line continuations, directives),
the lock-order machinery on synthetic sources (cycle detection, lambda
deferral, REQUIRES-mediated edges, declaration closure), layering
resolution, and the stats cross-reference on minimal anchors.
"""

import unittest

from . import lexer
from .cpp_model import Model, ModelCache
from .engine import SourceFile
from .layering import LayeringRule
from .lock_order import LockOrderRule
from .stats_check import StatsExhaustivenessRule
from .token_rules import TOKEN_RULES


def lex_kinds(text):
    tokens, _ = lexer.lex(text)
    return [(t.kind, t.text) for t in tokens]


def source(rel, text):
    return SourceFile("/" + rel, rel, text)


def run_lock_order(sources, declarations=""):
    files = [source(rel, text) for rel, text in sources]
    if declarations:
        files.append(source("src/support/mutex.hpp", declarations))
    rule = LockOrderRule(ModelCache())
    return rule.check_tree(files, strict=True)


class LexerTest(unittest.TestCase):
    def test_comments_and_strings_are_stripped_from_code_lines(self):
        _, code = lexer.lex('int a; // trailing printf("x")\n'
                            'const char* s = "std::mutex inside";\n'
                            '/* std::mutex\n   spanning */ int b;\n')
        self.assertEqual(code[0].rstrip(), "int a;")
        self.assertNotIn("mutex", code[1])
        self.assertNotIn("mutex", code[2])
        self.assertIn("int b;", code[3])

    def test_line_comment_with_continuation_swallows_next_line(self):
        _, code = lexer.lex("// comment continues \\\nstd::mutex m;\nint x;\n")
        self.assertNotIn("mutex", "\n".join(code))
        self.assertEqual(code[2], "int x;")

    def test_raw_string_with_delimiter(self):
        text = 'auto s = R"json({"a": ")("})json"; int n;\n'
        tokens, code = lexer.lex(text)
        kinds = [t.kind for t in tokens]
        self.assertIn("str", kinds)
        self.assertIn("int n;", code[0])
        self.assertNotIn("json", code[0])

    def test_multiline_raw_string_preserves_line_numbers(self):
        text = 'auto s = R"(line one\nline two\n)"; int after;\n'
        tokens, _ = lexer.lex(text)
        after = [t for t in tokens if t.text == "after"]
        self.assertEqual(after[0].line, 3)

    def test_raw_string_inside_macro_does_not_end_directive(self):
        text = '#define BLOB R"(not\n a\n directive)"\nint x;\n'
        tokens, _ = lexer.lex(text)
        pps = [t for t in tokens if t.kind == "pp"]
        self.assertEqual(len(pps), 1)
        ids = [t for t in tokens if t.kind == "id"]
        self.assertEqual([t.text for t in ids], ["int", "x"])

    def test_digraphs_normalize(self):
        tokens, _ = lexer.lex("int a<:2:> = <%1, 2%>;\n")
        puncts = [t.text for t in tokens if t.kind == "punct"]
        self.assertIn("[", puncts)
        self.assertIn("]", puncts)
        self.assertIn("{", puncts)
        self.assertIn("}", puncts)

    def test_spliced_directive_is_one_pp_token(self):
        tokens, code = lexer.lex("#define TWO \\\n  2\nint y = TWO;\n")
        pps = [t for t in tokens if t.kind == "pp"]
        self.assertEqual(len(pps), 1)
        self.assertEqual(pps[0].line, 1)
        self.assertIn("int y = TWO;", code[2])

    def test_include_paths_survive_in_pp_text(self):
        tokens, _ = lexer.lex('#include "api/malsched.hpp"\n')
        self.assertEqual(lexer.includes(tokens), [(1, "api/malsched.hpp")])

    def test_unterminated_string_stops_at_eol(self):
        tokens, code = lexer.lex('const char* s = "oops;\nint fine;\n')
        self.assertIn("int fine;", code[1])

    def test_stripped_literal_keeps_surrounding_tokens(self):
        _, code = lexer.lex('f("x")g;\n')
        self.assertNotIn("x", code[0])
        self.assertIn("f()g;", code[0])


class CppModelTest(unittest.TestCase):
    def test_fields_and_out_of_line_methods(self):
        model = Model()
        model.add_file(source("src/x.cpp", """
struct Pool { void post(); Mutex mutex_; };
struct Svc {
  std::unique_ptr<Pool> pool_;
  mutable Mutex mutex_;
  unsigned long long count{0};
  void run();
};
void Svc::run() { LockGuard lock(mutex_); pool_->post(); }
"""))
        svc = model.classes["Svc"]
        self.assertEqual(svc.fields["pool_"].type, "Pool")
        self.assertEqual(svc.fields["mutex_"].type, "Mutex")
        self.assertEqual(svc.fields["count"].type, "long")
        run = model.functions["Svc::run"]
        self.assertEqual([e.kind for e in run.events], ["guard", "call"])

    def test_ctor_init_list_brace_init_is_not_the_body(self):
        model = Model()
        model.add_file(source("src/x.cpp", """
struct A {
  int n_; Mutex m_;
  A(int n) : n_{n} { LockGuard lock(m_); }
};
"""))
        ctor = model.functions["A::A"]
        self.assertEqual([e.kind for e in ctor.events], ["guard"])

    def test_duplicate_definitions_do_not_merge(self):
        model = Model()
        model.add_file(source("tests/a.cpp",
                              "struct Gate { Mutex m; void go() { LockGuard l(m); } };"))
        model.add_file(source("tests/b.cpp",
                              "struct Gate { Mutex m; void go() { LockGuard l(m); } };"))
        bodies = [q for q in model.functions if "go" in q]
        self.assertEqual(len(bodies), 2)
        for q in bodies:
            self.assertEqual(len(model.functions[q].events), 1)


class LockOrderTest(unittest.TestCase):
    def test_opposite_nesting_reports_cycle_with_witness(self):
        diags = run_lock_order([("src/core/x.cpp", """
struct L {
  Mutex a_; Mutex b_;
  void fwd() { LockGuard x(a_); LockGuard y(b_); }
  void bwd() { LockGuard y(b_); LockGuard x(a_); }
};
""")])
        cycles = [d for d in diags if d.rule == "lock-order"]
        self.assertEqual(len(cycles), 1)
        self.assertIn("L::a_", cycles[0].message)
        self.assertIn("L::b_", cycles[0].message)
        self.assertTrue(cycles[0].witness)

    def test_declared_edge_is_not_reported(self):
        src = ("src/core/x.cpp", """
struct L {
  Mutex a_; Mutex b_;
  void fwd() { LockGuard x(a_); LockGuard y(b_); }
};
""")
        undeclared = [d for d in run_lock_order([src])
                      if d.rule == "lock-order-undeclared"]
        self.assertEqual(len(undeclared), 1)
        declared = run_lock_order([src], "// lint:lock-order(L::a_ -> L::b_)\n")
        self.assertEqual(declared, [])

    def test_declaration_closure_is_transitive(self):
        src = ("src/core/x.cpp", """
struct L {
  Mutex a_; Mutex c_;
  void skip() { LockGuard x(a_); LockGuard z(c_); }
};
""")
        diags = run_lock_order(
            [src], "// lint:lock-order(L::a_ -> L::b_ -> L::c_)\n")
        self.assertEqual(diags, [])

    def test_call_mediated_edge_through_requires(self):
        diags = run_lock_order([("src/core/x.cpp", """
struct Pool { Mutex mutex_; void post() { LockGuard lock(mutex_); } };
struct Svc {
  Mutex mutex_; Pool pool_;
  void enqueue_locked() MALSCHED_REQUIRES(mutex_) { pool_.post(); }
};
""")])
        undeclared = [d for d in diags if d.rule == "lock-order-undeclared"]
        self.assertEqual(len(undeclared), 1)
        self.assertIn("Svc::mutex_ -> Pool::mutex_", undeclared[0].message)

    def test_lambda_acquisitions_are_deferred(self):
        # pool_.post([this]{ run_next(); }) under mutex_: run_next relocks
        # mutex_ LATER, on a pool thread -- not a self-edge at the post site.
        diags = run_lock_order([("src/core/x.cpp", """
struct Pool { void post(); };
struct Svc {
  Mutex mutex_; Pool pool_;
  void run_next() { LockGuard lock(mutex_); }
  void enqueue_locked() MALSCHED_REQUIRES(mutex_) {
    pool_.post([this] { run_next(); });
  }
};
""")])
        self.assertEqual([d for d in diags if d.rule == "lock-order"], [])

    def test_scope_exit_releases_guard(self):
        diags = run_lock_order([("src/core/x.cpp", """
struct L {
  Mutex a_; Mutex b_;
  void seq() {
    { LockGuard x(a_); }
    { LockGuard y(b_); }
  }
};
""")])
        self.assertEqual(diags, [])


class LayeringTest(unittest.TestCase):
    def check(self, rel, text):
        return LayeringRule().check_tree([source(rel, text)], strict=True)

    def test_upward_include_is_reported_with_ranks(self):
        diags = self.check("src/core/solver.cpp", '#include "api/malsched.hpp"\n')
        self.assertEqual(len(diags), 1)
        self.assertEqual(diags[0].rule, "layering")
        self.assertIn("core/ must not include api/", diags[0].message)
        self.assertIn("rank 30", diags[0].witness[0])

    def test_downward_and_same_layer_includes_pass(self):
        self.assertEqual(self.check("src/api/svc.cpp",
                                    '#include "support/mutex.hpp"\n'
                                    '#include "api/malsched.hpp"\n'), [])

    def test_layer_directive_overrides_path(self):
        diags = self.check("tests/helper.cpp",
                           '// lint:layer(support)\n#include "model/instance.hpp"\n')
        self.assertEqual(len(diags), 1)

    def test_top_layer_may_include_anything(self):
        self.assertEqual(self.check("tests/helper.cpp",
                                    '#include "api/malsched.hpp"\n'), [])

    def test_chain_witness_closes_the_cycle(self):
        files = [
            source("src/exec/runner.hpp", '#include "api/svc.hpp"\n'),
            source("src/api/svc.hpp", '#include "exec/pool.hpp"\n'),
            source("src/exec/pool.hpp", "int x;\n"),
        ]
        diags = LayeringRule().check_tree(files, strict=True)
        self.assertEqual(len(diags), 1)
        joined = "\n".join(diags[0].witness)
        self.assertIn("closing the cycle", joined)
        self.assertIn("src/api/svc.hpp:1", joined)


class StatsCheckTest(unittest.TestCase):
    STRUCT = """
struct ServiceStats { unsigned long long a{0}; unsigned long long b{0}; };
"""

    def check(self, text):
        rule = StatsExhaustivenessRule(ModelCache())
        return rule.check_tree([source("src/api/s.hpp", self.STRUCT),
                                source("src/api/s.cpp", text)], strict=True)

    def test_missing_rollup_field_is_reported(self):
        diags = self.check("""
void accumulate_stats(ServiceStats& t, const ServiceStats& s) { t.a += s.a; }
""")
        self.assertEqual(len(diags), 1)
        self.assertIn("ServiceStats.b", diags[0].message)
        self.assertIn("accumulate_stats", diags[0].message)

    def test_string_key_counts_as_serialized(self):
        diags = self.check("""
void accumulate_stats(ServiceStats& t, const ServiceStats& s) {
  t.a += s.a; t.b += s.b;
}
void write_service_stats(J& j, const ServiceStats& s) {
  j.key("a"); j.value(s.a);
  j.key("b"); j.value(0);
}
""")
        self.assertEqual(diags, [])

    def test_strict_mode_skips_absent_anchors(self):
        rule = StatsExhaustivenessRule(ModelCache())
        diags = rule.check_tree([source("src/api/s.hpp", self.STRUCT)],
                                strict=True)
        self.assertEqual(diags, [])


class EngineTest(unittest.TestCase):
    def test_allow_directive_suppresses_on_line_and_line_above(self):
        from . import engine
        sf = source("src/x.cpp", "int a;\n// lint:allow(printf)\nint b;\n")
        self.assertTrue(sf.allowed(2, "printf"))
        self.assertTrue(sf.allowed(3, "printf"))
        self.assertFalse(sf.allowed(1, "printf"))

    def test_token_rule_ids_are_stable(self):
        self.assertEqual(
            sorted({r.id for r in TOKEN_RULES}),
            ["cv-wait-predicate", "pragma-once", "printf",
             "raw-mutex", "steady-clock", "unordered-iteration"])


if __name__ == "__main__":
    unittest.main()
