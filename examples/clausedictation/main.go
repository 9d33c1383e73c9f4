// Clause-streaming dictation: the incremental interface loop of Section 5,
// driven through the real streaming pipeline instead of hand-sliced
// transcripts. Each spoken clause goes through Session.StreamFragment —
// which corrects the accumulated transcript through the cached, warm-started
// trie search and replays memoized literal votes — while an event
// subscriber prints the corrected query exactly as the SSE feed would push
// it to the display. The dictation ends with a full-fidelity finalize and
// a SQL-keyboard touch edit, with the units-of-effort metric accounted
// throughout.
//
//	go run ./examples/clausedictation
package main

import (
	"context"
	"fmt"
	"log"

	"speakql"
	"speakql/internal/core"
	"speakql/internal/session"
	"speakql/internal/stream"
)

func main() {
	catalog := speakql.NewCatalog(
		[]string{"Employees", "Salaries", "Titles"},
		[]string{"FirstName", "LastName", "Salary", "Title", "HireDate"},
		[]string{"Engineer", "Staff", "Manager"},
	)
	engine, err := core.NewEngine(core.Config{
		Grammar: speakql.TestGrammar(),
		Catalog: catalog,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The display's half of the SSE feed: a subscriber printing each pushed
	// snapshot. In the HTTP deployment this is GET /api/stream/events.
	events := stream.NewBroadcaster()
	sub := events.Subscribe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range sub.Events() {
			fmt.Printf("  event %-9s seq=%d  %s\n", ev.Kind, ev.Seq, ev.SQL)
		}
	}()

	sess := session.New(engine)
	sess.SetStreamConfig(stream.Config{Events: events, Session: "demo"})

	// The user dictates clause by clause; the ASR mangled the WHERE clause
	// ("title equals engineer" arrived as "title equals in here"). Every
	// fragment re-corrects the whole accumulated transcript.
	ctx := context.Background()
	clauses := []string{
		"select first name",
		"from employees natural join titles",
		"where title equals in here",
	}
	for _, clause := range clauses {
		out, err := sess.StreamFragment(ctx, clause)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("dictated %-38q -> %s\n", clause, out.Best().SQL)
	}

	// Finalize closes the stream with a full-fidelity re-pass — by
	// construction bit-identical to a one-shot correction of the transcript.
	fin, err := sess.FinalizeStream(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("finalized               :", fin.Best().SQL)

	// The phonetic vote heard "in here" as a title; the user repairs the
	// value with the SQL keyboard's autocomplete (Figure 5B), then appends a
	// LIMIT with two keyword-list taps.
	n := len(sess.Tokens())
	sess.ReplaceToken(n-1, "'Engineer'")
	sess.InsertToken(n, "LIMIT")
	sess.InsertToken(n+1, "10")
	fmt.Println("after keyboard edits    :", sess.SQL())

	events.Close()
	<-done
	fmt.Printf("effort: %d touches + %d dictations = %d units\n",
		sess.Touches(), sess.Dictations(), sess.Effort())
}
