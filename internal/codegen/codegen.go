// Package codegen generates implementation artifacts from DQ_WebRE models,
// prefiguring the paper's stated goal of "designing models and producing
// code in a semiautomatic manner":
//
//   - SQLDDL emits CREATE TABLE statements for the model's Content elements,
//     widened with the DQ metadata columns demanded by the model's
//     DQ_Metadata elements, plus an audit-trail table when traceability
//     metadata is present.
//   - HTMLForm emits the data-entry form for an InformationCase, with
//     required fields and numeric ranges taken from the DQConstraints.
//   - GoValidator emits a self-contained Go source file implementing the
//     check functions a DQSR model's validator components require.
package codegen

import (
	"fmt"
	"html"
	"sort"
	"strings"

	"github.com/modeldriven/dqwebre/internal/dqwebre"
	"github.com/modeldriven/dqwebre/internal/metamodel"
)

// sqlIdent lowercases and sanitizes a name for SQL identifiers.
func sqlIdent(name string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(name) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	out := strings.Trim(b.String(), "_")
	if out == "" {
		return "t"
	}
	return out
}

// SQLDDL generates the schema for every Content element of the model. Each
// Content becomes a table with its attributes as TEXT columns (columns
// with a DQConstraint range become INTEGER with a CHECK on that range);
// DQ_Metadata elements associated with the Content
// contribute metadata columns; a dq_audit table is appended when any
// traceability metadata (stored_by) is modeled.
func SQLDDL(rm *dqwebre.RequirementsModel) (string, error) {
	contents, err := rm.Model.AllInstancesOf("Content")
	if err != nil {
		return "", err
	}
	metas, err := rm.Model.AllInstancesOf(dqwebre.MetaDQMetadata)
	if err != nil {
		return "", err
	}
	ranges, err := modelRanges(rm)
	if err != nil {
		return "", err
	}

	var b strings.Builder
	b.WriteString("-- Generated by dqwebre codegen from model " + rm.Name() + "\n")
	traceability := false
	for _, content := range contents {
		table := sqlIdent(content.GetString("name"))
		type column struct{ def, comment string }
		cols := []column{{def: "id INTEGER PRIMARY KEY"}}
		for _, attr := range content.GetRefs("attributes") {
			col := sqlIdent(attr.GetString("name"))
			if r, ok := ranges[attr.GetString("name")]; ok {
				cols = append(cols, column{def: fmt.Sprintf("%s INTEGER CHECK (%s BETWEEN %d AND %d)", col, col, r[0], r[1])})
			} else {
				cols = append(cols, column{def: col + " TEXT NOT NULL"})
			}
		}
		// Metadata columns from DQ_Metadata elements covering this content.
		for _, meta := range metas {
			covers := false
			for _, c := range meta.GetRefs("contents") {
				if c == content {
					covers = true
					break
				}
			}
			if !covers {
				continue
			}
			for _, v := range meta.GetList("dq_metadata") {
				name := string(v.(metamodel.String))
				col := sqlIdent(name)
				typ := "TEXT"
				if strings.Contains(name, "date") {
					typ = "TIMESTAMP"
				}
				if strings.Contains(name, "level") {
					typ = "INTEGER"
				}
				cols = append(cols, column{
					def:     col + " " + typ,
					comment: fmt.Sprintf(" -- DQ metadata (%s)", meta.GetString("name")),
				})
				if name == "stored_by" {
					traceability = true
				}
			}
		}
		fmt.Fprintf(&b, "\nCREATE TABLE %s (\n", table)
		for i, c := range cols {
			comma := ","
			if i == len(cols)-1 {
				comma = ""
			}
			fmt.Fprintf(&b, "    %s%s%s\n", c.def, comma, c.comment)
		}
		b.WriteString(");\n")
	}
	if traceability {
		b.WriteString(`
CREATE TABLE dq_audit (
    id INTEGER PRIMARY KEY,
    record_key TEXT NOT NULL,
    action TEXT NOT NULL CHECK (action IN ('store', 'modify', 'read', 'denied')),
    actor TEXT NOT NULL,
    at TIMESTAMP NOT NULL
);
`)
	}
	return b.String(), nil
}

// modelRanges reads the field ranges of every DQConstraint through the
// payload codec the enforcer uses, in model order: a field's last one wins.
func modelRanges(rm *dqwebre.RequirementsModel) (map[string][2]int64, error) {
	constraints, err := rm.Model.AllInstancesOf(dqwebre.MetaDQConstraint)
	if err != nil {
		return nil, err
	}
	var payloads []metamodel.Value
	for _, con := range constraints {
		payloads = append(payloads, con.GetList("constraintData")...)
	}
	return dqwebre.ReadConstraintData(payloads).Ranges, nil
}

// HTMLForm generates the data-entry form for the named InformationCase:
// one input per attribute of its managed Contents. Fields with range
// constraints become number inputs with min/max; a Completeness requirement
// on the case makes every field required.
func HTMLForm(rm *dqwebre.RequirementsModel, informationCase string) (string, error) {
	ic, ok := rm.Model.FindByName(dqwebre.MetaInformationCase, informationCase)
	if !ok {
		return "", fmt.Errorf("codegen: no InformationCase named %q", informationCase)
	}
	ranges, err := modelRanges(rm)
	if err != nil {
		return "", err
	}

	required := false
	for _, inc := range ic.GetRefs("include") {
		if req := inc.GetRef("addition"); req != nil {
			if v, ok := req.Get("dimension"); ok {
				if lit, ok := v.(metamodel.EnumLit); ok && lit.Literal == "Completeness" {
					required = true
				}
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "<!-- Generated by dqwebre codegen -->\n<form method=\"post\" class=\"dq-form\">\n")
	fmt.Fprintf(&b, "  <h2>%s</h2>\n", html.EscapeString(ic.GetString("name")))
	for _, content := range ic.GetRefs("manages") {
		fmt.Fprintf(&b, "  <fieldset>\n    <legend>%s</legend>\n",
			html.EscapeString(content.GetString("name")))
		for _, attr := range content.GetRefs("attributes") {
			name := attr.GetString("name")
			req := ""
			if required {
				req = " required"
			}
			label := html.EscapeString(strings.ReplaceAll(name, "_", " "))
			if r, ok := ranges[name]; ok {
				fmt.Fprintf(&b,
					"    <label>%s <input type=\"number\" name=%q min=\"%d\" max=\"%d\"%s></label>\n",
					label, name, r[0], r[1], req)
			} else if strings.Contains(name, "email") {
				fmt.Fprintf(&b, "    <label>%s <input type=\"email\" name=%q%s></label>\n", label, name, req)
			} else {
				fmt.Fprintf(&b, "    <label>%s <input type=\"text\" name=%q%s></label>\n", label, name, req)
			}
		}
		b.WriteString("  </fieldset>\n")
	}
	b.WriteString("  <button type=\"submit\">Submit</button>\n</form>\n")
	return b.String(), nil
}

// GoValidator generates a compilable Go source file implementing the check
// functions of a DQSR model's validator components: one function per
// distinct operation name, over a record type, mirroring the dqruntime
// checks. pkg names the generated package.
func GoValidator(dqsr interface {
	AllInstancesOf(string) ([]*metamodel.Object, error)
}, pkg string) (string, error) {
	comps, err := dqsr.AllInstancesOf("ComponentSpec")
	if err != nil {
		return "", err
	}
	reqs, err := dqsr.AllInstancesOf("SoftwareRequirement")
	if err != nil {
		return "", err
	}

	// Fields per characteristic, for completeness checks.
	fieldsByDim := map[string][]string{}
	for _, r := range reqs {
		var fields []string
		for _, v := range r.GetList("fields") {
			fields = append(fields, string(v.(metamodel.String)))
		}
		fieldsByDim[r.GetString("dimension")] = fields
	}

	ops := map[string]bool{}
	for _, c := range comps {
		if c.GetString("kind") != "validator" {
			continue
		}
		for _, v := range c.GetList("operations") {
			ops[string(v.(metamodel.String))] = true
		}
	}
	opNames := make([]string, 0, len(ops))
	for op := range ops {
		opNames = append(opNames, op)
	}
	sort.Strings(opNames)

	var b strings.Builder
	fmt.Fprintf(&b, "// Code generated by dqwebre codegen; DO NOT EDIT.\n\npackage %s\n\n", pkg)
	b.WriteString("import (\n\t\"strconv\"\n\t\"strings\"\n)\n\n")
	b.WriteString("// Record is one unit of user-entered data.\ntype Record map[string]string\n")
	for _, op := range opNames {
		switch {
		case strings.Contains(op, "completeness"):
			fields := fieldsByDim["Completeness"]
			fmt.Fprintf(&b, "\n// %s reports whether every required field is filled.\nfunc %s(r Record) bool {\n", op, goIdent(op))
			fmt.Fprintf(&b, "\tfor _, f := range []string{%s} {\n", quoteList(fields))
			b.WriteString("\t\tif strings.TrimSpace(r[f]) == \"\" {\n\t\t\treturn false\n\t\t}\n\t}\n\treturn true\n}\n")
		case strings.Contains(op, "precision"):
			fmt.Fprintf(&b, "\n// %s reports whether a numeric field lies within [lo, hi].\nfunc %s(r Record, field string, lo, hi int64) bool {\n", op, goIdent(op))
			b.WriteString("\traw := strings.TrimSpace(r[field])\n\tif raw == \"\" {\n\t\treturn true\n\t}\n")
			b.WriteString("\tn, err := strconv.ParseInt(raw, 10, 64)\n\tif err != nil {\n\t\treturn false\n\t}\n")
			b.WriteString("\treturn n >= lo && n <= hi\n}\n")
		default:
			fmt.Fprintf(&b, "\n// %s is a custom check; implement per application policy.\nfunc %s(r Record) bool {\n\t_ = r\n\treturn true\n}\n", op, goIdent(op))
		}
	}
	return b.String(), nil
}

func goIdent(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	out := b.String()
	if out == "" {
		return "check"
	}
	return out
}

func quoteList(items []string) string {
	parts := make([]string, len(items))
	for i, s := range items {
		parts[i] = fmt.Sprintf("%q", s)
	}
	return strings.Join(parts, ", ")
}
