// Command speakql is an interactive REPL over the SpeakQL pipeline: type a
// "spoken" query (words, with special characters dictated — "select star
// from employees") and get the corrected SQL back, optionally executed
// against a built-in demo database (the synthetic Employees or Yelp
// schema).
//
// Usage:
//
//	speakql [-db employees|yelp] [-scale test|default|paper] [-exec] [-topk N]
//	        [-validate off|bind]
//
// -validate=bind turns on the validation stage (DESIGN.md §15): each
// candidate is parsed and bound against the demo schema and its verdict
// ("ok", "bind_error", "parse_error") is shown next to the SQL; candidates
// that fail are demoted below every passing one.
//
// Example session:
//
//	spoken> select average open parenthesis salary close parenthesis from salaries
//	SQL   > SELECT AVG ( Salary ) FROM Salaries
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"speakql"
	"speakql/internal/core"
	"speakql/internal/dataset"
	"speakql/internal/sqlengine"
)

func main() {
	dbFlag := flag.String("db", "employees", "demo database: employees or yelp")
	scale := flag.String("scale", "test", "structure corpus scale: test, default, or paper")
	execQ := flag.Bool("exec", false, "execute the corrected query against the demo database")
	topk := flag.Int("topk", 1, "show the top-k correction candidates")
	validate := flag.String("validate", "off",
		"validation: off or bind (shows a per-candidate verdict and demotes candidates that fail to parse or bind)")
	flag.Parse()

	validateMode, okMode := core.ParseValidationMode(*validate)
	if !okMode {
		fmt.Fprintf(os.Stderr, "unknown -validate %q (want off or bind)\n", *validate)
		os.Exit(2)
	}

	var db *sqlengine.Database
	switch *dbFlag {
	case "employees":
		db = dataset.NewEmployeesDB(dataset.DefaultEmployeesConfig())
	case "yelp":
		db = dataset.NewYelpDB(dataset.DefaultYelpConfig())
	default:
		fmt.Fprintf(os.Stderr, "unknown -db %q (want employees or yelp)\n", *dbFlag)
		os.Exit(2)
	}

	var gcfg speakql.GrammarConfig
	switch *scale {
	case "test":
		gcfg = speakql.TestGrammar()
	case "default":
		gcfg = speakql.DefaultGrammar()
	case "paper":
		gcfg = speakql.PaperGrammar()
	default:
		fmt.Fprintf(os.Stderr, "unknown -scale %q\n", *scale)
		os.Exit(2)
	}

	fmt.Fprintf(os.Stderr, "building structure index (%s scale)...\n", *scale)
	eng, err := speakql.NewEngine(speakql.Config{Grammar: gcfg, Catalog: speakql.CatalogOf(db)})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if validateMode != core.ValidationOff {
		eng.SetValidation(core.ValidationConfig{Mode: validateMode}, db)
		fmt.Fprintf(os.Stderr, "validation stage active (%s mode)\n", validateMode)
	}
	fmt.Fprintf(os.Stderr, "ready. schema %s: %s\n", db.Name,
		strings.Join(db.TableNames(), ", "))
	fmt.Fprintln(os.Stderr, `dictate a query ("select star from employees"), or "quit".`)

	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("spoken> ")
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "quit" || line == "exit" {
			break
		}
		out := eng.CorrectTopK(line, *topk)
		for i, c := range out.Candidates {
			label := "SQL   >"
			if *topk > 1 {
				label = fmt.Sprintf("SQL %2d>", i+1)
			}
			suffix := ""
			if c.Verdict != "" {
				suffix = fmt.Sprintf("   [%s", c.Verdict)
				if c.Demoted {
					suffix += ", demoted"
				}
				suffix += "]"
			}
			fmt.Printf("%s %s%s\n", label, c.SQL, suffix)
		}
		if *execQ && len(out.Candidates) > 0 {
			res, err := sqlengine.Run(db, out.Candidates[0].SQL)
			if err != nil {
				fmt.Printf("exec  ! %v\n", err)
				continue
			}
			printResult(res, 10)
		}
	}
}

func printResult(res *sqlengine.Result, limit int) {
	fmt.Printf("cols  : %s\n", strings.Join(res.Cols, " | "))
	for i, row := range res.Rows {
		if i == limit {
			fmt.Printf("…      (%d more rows)\n", len(res.Rows)-limit)
			break
		}
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.String()
		}
		fmt.Printf("row   : %s\n", strings.Join(parts, " | "))
	}
	if len(res.Rows) == 0 {
		fmt.Println("row   : (empty result)")
	}
}
