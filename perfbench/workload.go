package main

// workload.go generates each named workload's op sequence from a seed.
// Every input is a verbalized dataset.GenerateQueries query transcribed by
// the ACS profile trained on the Employees training split (Table 2's
// setting), so every answer has a ground truth.

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"speakql/internal/asr"
	"speakql/internal/dataset"
	"speakql/internal/grammar"
	"speakql/internal/literal"
	"speakql/internal/phonetic"
	"speakql/internal/speech"
	"speakql/internal/sqlengine"
	"speakql/internal/sqltoken"
)

type opKind uint8

const (
	kindCorrect   opKind = iota // POST /api/correct
	kindPatch                   // PATCH /api/tenants/{id}
	kindDictation               // stream/dictate per clause, then stream/finalize
)

func (k opKind) String() string {
	return [...]string{"correct", "patch", "dictation"}[k]
}

// op is one generated operation. Fields are filled at generation time;
// execution only reads them.
type op struct {
	kind       opKind
	path       string // request path (correct, patch)
	body       []byte // request body (correct, patch)
	transcript string // correct: the transcript; dictation: the full transcript
	topk       int
	clauses    []string             // dictation: fragments in dictation order
	truth      []string             // ground-truth SQL tokens; nil for patches
	added      string               // patch: value added; correct: added value this read dictates
	delta      literal.CatalogDelta // patch: the catalog change
	deps       []int                // indexes of earlier ops that must complete first
	repeat     bool                 // exact repeat of an earlier request
}

// workload is one named workload's inputs.
type workload struct {
	name       string
	tenant     string // "" = the seed tenant
	tenantBody []byte // PUT body registering tenant
	tables     []string
	attrs      []string
	values     []string
	warm       []op // untimed warm-up ops
	ops        []op // timed ops: ops[:paced] paced, the rest saturated
	paced      int
	rate       float64       // paced arrivals per second
	pacedDur   time.Duration // paced phase length
	satDur     time.Duration // saturated phase length; with fixed, only sizes the op set
	fixed      bool          // the saturated phase runs every op of a fixed set
	sessions   int           // stream session pool size
	warmMasks  []string      // popular: the warm set of generic masks
}

// spec describes a workload's load shape. Paced rates are about 30% of the
// two-connection saturated throughput measured on the reference machine
// (README.md), and each paced phase holds at least 1,000 requests at
// --seconds 25. The saturated phase gets the rest of the time and runs on
// one connection: on the reference machine's two vCPUs, two requests
// running at once slowed each other by a share that changed from minute to
// minute (the same fresh ops on two connections spread by 27% over ten
// runs, on one by 6%).
type spec struct {
	rate    float64 // paced arrivals per second
	paced   float64 // share of --seconds spent in the paced phase; the rest is saturated
	satRate float64 // sizes the saturated op set, in ops per second of its window (see satFill, satHeadroom)
	warm    int     // warm-up ops
	// fixedWork workloads run a fixed op set in each phase (see
	// genFixed); the others draw a pool with headroom from the seed.
	fixedWork bool
}

var specs = map[string]spec{
	"fresh":   {rate: 80, paced: 0.5, satRate: 170, warm: 40, fixedWork: true},
	"popular": {rate: 1000, paced: 0.4, satRate: 2600, warm: 0},
	"stream":  {rate: 45, paced: 0.4, satRate: 90, warm: 8, fixedWork: true},
}

// workloadNames lists the workloads in a fixed order.
var workloadNames = []string{"fresh", "popular", "stream"}

// satHeadroom sizes a seeded workload's saturated pool as a multiple of the
// reference machine's saturated throughput, so a faster program does not
// run out of unused ops.
const satHeadroom = 2

// satFill sizes a fixed-work workload's saturated op set as a share of what
// the reference machine completes in the window. The whole set runs however
// long it takes, so every run measures the same work.
const satFill = 0.7

// streamPool is the number of stream sessions simulated users share: more
// than the dictations open at once even when both connections stall.
const streamPool = 64

// corpus holds the generation substrate shared by the workloads.
type corpus struct {
	gcfg grammar.GenConfig
	emp  *sqlengine.Database
	acs  *asr.Engine
}

// newCorpus trains the ACS profile on the Employees training split, as the
// Table 2 experiment does (750 queries, corpus seed 42, ASR seed 1001).
func newCorpus(gcfg grammar.GenConfig) *corpus {
	emp := dataset.NewEmployeesDB(dataset.DefaultEmployeesConfig())
	train := dataset.GenerateQueries(emp, dataset.GenConfig{Grammar: gcfg, N: 750, Seed: 42})
	acs := asr.NewEngine(asr.ACSProfile(), 1001)
	sqls := make([]string, len(train))
	for i, q := range train {
		sqls[i] = q.SQL
	}
	acs.TrainQueries(sqls)
	return &corpus{gcfg: gcfg, emp: emp, acs: acs}
}

// generate builds the named workload for seed and a run of the given
// length.
func generate(c *corpus, name string, seed int64, seconds float64) (*workload, error) {
	sp, ok := specs[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	w := &workload{name: name, rate: sp.rate}
	w.pacedDur = time.Duration(seconds * sp.paced * float64(time.Second))
	w.satDur = time.Duration(seconds*float64(time.Second)) - w.pacedDur
	w.paced = int(math.Round(sp.rate * w.pacedDur.Seconds()))
	if sp.fixedWork {
		w.fixed = true
		sat := int(math.Ceil(satFill * sp.satRate * w.satDur.Seconds()))
		genFixed(c, w, seed, sp.warm, sat)
		return w, nil
	}
	sat := int(math.Ceil(satHeadroom * sp.satRate * w.satDur.Seconds()))
	if err := genPopular(c, w, seed, w.paced+sat); err != nil {
		return nil, err
	}
	return w, nil
}

// querySeed derives a dataset generator seed, far from the training
// split's seed 42.
func querySeed(seed int64, salt int64) int64 { return 1_000_003*seed + 7_919*salt + 100_000 }

// correctBody encodes a POST /api/correct body.
func correctBody(transcript string, topk int) []byte {
	b, _ := json.Marshal(struct {
		Transcript string `json:"transcript"`
		TopK       int    `json:"topk"`
	}{transcript, topk}) // marshalling a string and an int cannot fail
	return b
}

// corpusSalt keys the fixed query corpus of the fixed-work workloads: the
// same queries for every seed.
const corpusSalt = 7001

// genFixed builds fresh and stream. Their queries come from one fixed
// corpus of distinct transcripts of Employees queries: the first ones warm
// up, the next w.paced form the paced phase and the next sat the saturated
// phase. --seed shuffles each phase's ops. One query in a few hundred costs
// 100-500 ms of trie search; drawing a new sample per seed moved
// throughput by ±11% between seeds, so every seed runs the same op set in
// each phase, in its own order.
func genFixed(c *corpus, w *workload, seed int64, warm, sat int) {
	n := warm + w.paced + sat
	seen := map[string]bool{}
	var ops []op
	for batch := int64(0); len(ops) < n; batch++ {
		qs := dataset.GenerateQueries(c.emp, dataset.GenConfig{Grammar: c.gcfg, N: n - len(ops) + 64, Seed: querySeed(0, corpusSalt+batch)})
		for _, q := range qs {
			if len(ops) == n {
				break
			}
			tr := strings.TrimSpace(c.acs.Transcribe(q.Spoken))
			if seen[tr] || tr == "" {
				continue
			}
			seen[tr] = true
			if w.name == "stream" {
				ops = append(ops, op{kind: kindDictation, transcript: tr, topk: 1, clauses: splitClauses(tr), truth: q.Tokens})
				continue
			}
			// topk 5 for a fixed share: one query in eight.
			k := 1
			if len(ops)%8 == 3 {
				k = 5
			}
			ops = append(ops, op{kind: kindCorrect, path: "/api/correct", body: correctBody(tr, k),
				transcript: tr, topk: k, truth: q.Tokens})
		}
	}
	rng := rand.New(rand.NewSource(querySeed(seed, 1)))
	for _, ph := range [][]op{ops[warm : warm+w.paced], ops[warm+w.paced:]} {
		rng.Shuffle(len(ph), func(i, j int) { ph[i], ph[j] = ph[j], ph[i] })
	}
	w.warm, w.ops = ops[:warm], ops[warm:]
	if w.name == "stream" {
		w.sessions = streamPool
	}
}

// splitClauses splits a transcript before each spoken FROM, WHERE,
// GROUP BY and ORDER BY.
func splitClauses(transcript string) []string {
	words := strings.Fields(transcript)
	var clauses []string
	start := 0
	for i, wd := range words {
		lw := strings.ToLower(wd)
		cut := lw == "from" || lw == "where" ||
			((lw == "group" || lw == "order") && i+1 < len(words) && strings.EqualFold(words[i+1], "by"))
		if cut && i > start {
			clauses = append(clauses, strings.Join(words[start:i], " "))
			start = i
		}
	}
	if start < len(words) {
		clauses = append(clauses, strings.Join(words[start:], " "))
	}
	return clauses
}

// Popular-workload shape.
const (
	popularTenant    = "yelp"
	popularTemplates = 64 // warm set size: distinct generic masks
	popularRepeat    = 4  // one read in popularRepeat repeats an earlier one
	popularWriteEach = 40 // one op in popularWriteEach is a PATCH
	popularRecent    = 32 // repeats pick among this many recent reads
	popularIntPool   = 4000
)

var (
	quotedRe = regexp.MustCompile(`'[^']*'`)
	intRe    = regexp.MustCompile(`(^|[\s(,=<>])(\d{1,4})($|[\s),])`)
)

// template is a Yelp query with one literal slot whose value varies per
// request. Its transcript is assembled from the ACS transcriptions of the
// spoken words before the slot, of the slot's value, and of the words
// after it, so the slot can be refilled without transcribing the whole
// query again.
type template struct {
	sql        string
	slotAt     int  // byte offset of the slot's literal in sql
	slotLen    int  // byte length of the slot's literal
	quoted     bool // string slot (quoted) or integer slot
	voice      speech.Voice
	prefix     string // ACS transcript of the words before the slot
	suffix     string // ACS transcript of the words after the slot
	mask       string // generic mask of the assembled transcript
	domain     []string
	singleWord bool // the slot's transcript is one word (PATCH-probe capable)
	// Spoken forms span at most five words, so a value keeps the mask when
	// the slot and its maskContext neighbours on each side keep theirs.
	pre, suf string   // the prefix's last and the suffix's first maskContext words
	winMask  string   // generic mask of pre, the slot and suf
	toks     []string // ground-truth tokens of sql
	slotTok  int      // index of the slot's token in toks
}

// maskContext is how many words around a slot the mask check covers.
const maskContext = 6

// popularGen carries the popular generator's state.
type popularGen struct {
	c      *corpus
	rng    *rand.Rand
	trans  map[string]string // spoken words -> ACS transcript
	tpls   []*template
	codes  map[string]bool // phonetic codes of every catalog value
	values map[string]bool // every catalog value, lower-cased
	names  []string        // one-word Employees values in the ACS vocabulary
}

func (g *popularGen) transcribe(words []string) string {
	key := strings.Join(words, " ")
	if t, ok := g.trans[key]; ok {
		return t
	}
	t := strings.TrimSpace(g.c.acs.Transcribe(words))
	g.trans[key] = t
	return t
}

// literalText renders a slot value as SQL.
func literalText(v string, quoted bool) string {
	if quoted {
		return "'" + v + "'"
	}
	return v
}

func maskOf(transcript string) string {
	return strings.Join(sqltoken.MaskGeneric(sqltoken.SubstituteSpokenForms(sqltoken.TokenizeTranscript(transcript))), " ")
}

func join3(a, b, c string) string {
	parts := make([]string, 0, 3)
	for _, p := range []string{a, b, c} {
		if p != "" {
			parts = append(parts, p)
		}
	}
	return strings.Join(parts, " ")
}

// fill returns the transcript and ground-truth tokens of t with its slot
// holding the SQL literal lit.
func (g *popularGen) fill(t *template, lit string) (transcript string, truth []string, ok bool) {
	tv := g.transcribe(t.voice.VerbalizeQuery(lit))
	if tv == "" || maskOf(join3(t.pre, tv, t.suf)) != t.winMask {
		return "", nil, false
	}
	truth = append([]string(nil), t.toks...)
	truth[t.slotTok] = strings.Trim(lit, "'")
	return join3(t.prefix, tv, t.suffix), truth, true
}

// edge returns the first (or last) n words of s.
func edge(s string, n int, last bool) string {
	ws := strings.Fields(s)
	if len(ws) > n {
		if last {
			ws = ws[len(ws)-n:]
		} else {
			ws = ws[:n]
		}
	}
	return strings.Join(ws, " ")
}

// refillable reports whether most values of t's domain keep its mask, so
// the template can vary its literal per request.
func (g *popularGen) refillable(t *template) bool {
	ok := 0
	for try := 0; try < 16; try++ {
		if _, _, fits := g.fill(t, literalText(t.domain[g.rng.Intn(len(t.domain))], t.quoted)); fits {
			ok++
		}
	}
	return ok >= 8
}

// newTemplate derives a template from a generated query, or nil when the
// query has no usable slot.
func (g *popularGen) newTemplate(q dataset.SpokenQuery, voice speech.Voice, byCol map[string][]string, ints []string) *template {
	t := &template{sql: q.SQL, voice: voice}
	var v0 string
	if loc := quotedRe.FindStringIndex(q.SQL); loc != nil {
		v0 = q.SQL[loc[0]+1 : loc[1]-1]
		if strings.Count(q.SQL, "'"+v0+"'") == 1 && !strings.ContainsAny(v0, "0123456789") {
			for _, col := range sortedKeys(byCol) {
				if slices.Contains(byCol[col], v0) && len(byCol[col]) > 1 {
					t.domain, t.quoted = byCol[col], true
					t.slotAt, t.slotLen = loc[0], loc[1]-loc[0]
					break
				}
			}
		}
	}
	if t.domain == nil {
		m := intRe.FindStringSubmatchIndex(q.SQL)
		if m == nil {
			return nil
		}
		t.slotAt, t.slotLen = m[4], m[5]-m[4]
		v0 = q.SQL[m[4]:m[5]]
		t.domain = ints
	}
	lit := literalText(v0, t.quoted)
	const sentinel = "qqslotqq"
	marked := voice.VerbalizeQuery(q.SQL[:t.slotAt] + "'" + sentinel + "'" + q.SQL[t.slotAt+t.slotLen:])
	at := -1
	for i, wd := range marked {
		if wd == sentinel {
			at = i
			break
		}
	}
	if at < 0 {
		return nil
	}
	before, after := marked[:at], marked[at+1:]
	vw := voice.VerbalizeQuery(lit)
	whole := append(append(append([]string{}, before...), vw...), after...)
	if strings.Join(whole, " ") != strings.Join(q.Spoken, " ") {
		return nil // the slot does not verbalize in isolation
	}
	t.prefix, t.suffix = g.transcribe(before), g.transcribe(after)
	tv := g.transcribe(vw)
	if tv == "" {
		return nil
	}
	t.singleWord = len(strings.Fields(tv)) == 1
	t.mask = maskOf(join3(t.prefix, tv, t.suffix))
	t.pre, t.suf = edge(t.prefix, maskContext, true), edge(t.suffix, maskContext, false)
	t.winMask = maskOf(join3(t.pre, tv, t.suf))
	t.toks = sqltoken.TokenizeSQL(q.SQL[:t.slotAt] + "'" + sentinel + "'" + q.SQL[t.slotAt+t.slotLen:])
	t.slotTok = -1
	for i, tok := range t.toks {
		if tok == sentinel {
			t.slotTok = i
		}
	}
	if t.slotTok < 0 {
		return nil
	}
	t.toks[t.slotTok] = v0
	if strings.Join(t.toks, "\x00") != strings.Join(q.Tokens, "\x00") {
		return nil // the slot is not one token of the query
	}
	return t
}

func sortedKeys(m map[string][]string) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// newProbe draws a value to add to the catalog and the read that will
// dictate it. Values are Employees names the ACS vocabulary holds: not in
// the tenant's catalog, with a phonetic code no catalog value shares, and
// transcribed verbatim, so the read has one right answer. A retired value
// may be added again later; the live one (live) is never drawn.
func (g *popularGen) newProbe(tpls []*template, path, live string) (string, op, error) {
	for try := 0; try < 100_000; try++ {
		name := g.names[g.rng.Intn(len(g.names))]
		if name == live || g.values[strings.ToLower(name)] || g.codes[phonetic.Encode(name)] {
			continue
		}
		t := tpls[g.rng.Intn(len(tpls))]
		lit := literalText(name, true)
		if g.transcribe(t.voice.VerbalizeQuery(lit)) != strings.ToLower(name) {
			continue
		}
		// A probe may repeat an earlier probe's transcript: the PATCHes in
		// between invalidated its memo entry.
		tr, truth, ok := g.fill(t, lit)
		if !ok {
			continue
		}
		return name, op{kind: kindCorrect, path: path, body: correctBody(tr, 1), transcript: tr,
			topk: 1, truth: truth, added: name}, nil
	}
	return "", op{}, errors.New("popular: no name to add fits a probe template")
}

// genPopular: tenant-scoped corrections whose masks all belong to a warm
// set, with literal values varying per request, a quarter exact repeats,
// and a trickle of catalog PATCHes that add a value later reads dictate.
func genPopular(c *corpus, w *workload, seed int64, n int) error {
	yelp := dataset.NewYelpDB(dataset.YelpConfig{Businesses: 12000, Users: 400, Reviews: 1500, Seed: 2})
	w.tenant = popularTenant
	w.tables, w.attrs, w.values = yelp.TableNames(), yelp.AttributeNames(), yelp.StringValues(0)
	body, err := json.Marshal(map[string][]string{"tables": w.tables, "attributes": w.attrs, "values": w.values})
	if err != nil {
		return fmt.Errorf("encode tenant: %w", err)
	}
	w.tenantBody = body
	// The templates and their value domains are the same for every seed
	// (their mix sets the workload's cost and accuracy); the seed draws the
	// op sequence.
	g := &popularGen{c: c, rng: rand.New(rand.NewSource(querySeed(0, corpusSalt+100))),
		trans: map[string]string{}, codes: map[string]bool{}, values: map[string]bool{}}
	for _, v := range w.values {
		g.codes[phonetic.Encode(v)] = true
		g.values[strings.ToLower(v)] = true
	}
	for _, v := range c.emp.StringValues(0) {
		if !strings.ContainsAny(v, " 0123456789-") && c.acs.InVocabulary(strings.ToLower(v)) {
			g.names = append(g.names, v)
		}
	}
	if len(g.names) < 64 {
		return fmt.Errorf("popular: only %d names to add", len(g.names))
	}
	byCol := yelp.StringValuesByColumn(0)
	ints := make([]string, popularIntPool)
	for i := range ints {
		ints[i] = strconv.Itoa(1 + g.rng.Intn(9999))
	}
	masks := map[string]bool{}
	for batch := int64(0); len(g.tpls) < popularTemplates; batch++ {
		if batch > 20 {
			return fmt.Errorf("popular: found only %d templates", len(g.tpls))
		}
		qs := dataset.GenerateQueries(yelp, dataset.GenConfig{Grammar: c.gcfg, N: 400, Seed: querySeed(0, corpusSalt+101+batch)})
		for i, q := range qs {
			if len(g.tpls) == popularTemplates {
				break
			}
			t := g.newTemplate(q, speech.VoiceFor(i), byCol, ints)
			if t == nil || masks[t.mask] || !g.refillable(t) {
				continue
			}
			masks[t.mask] = true
			g.tpls = append(g.tpls, t)
		}
	}
	g.rng = rand.New(rand.NewSource(querySeed(seed, 100)))
	var probeTpls []*template
	for _, t := range g.tpls {
		w.warmMasks = append(w.warmMasks, t.mask)
		// Probe reads dictate their value right after a spoken "equals", in
		// a string slot, so the value lands in a value placeholder.
		if t.singleWord && t.quoted && strings.HasSuffix(maskOf(t.prefix), "=") {
			probeTpls = append(probeTpls, t)
		}
	}
	if len(probeTpls) == 0 {
		return fmt.Errorf("popular: no string-valued template takes a one-word value")
	}
	path := "/api/correct?tenant=" + popularTenant
	seen := map[string]bool{}
	// newRead fills a random template with a value no earlier read used.
	newRead := func() (op, error) {
		for try := 0; try < 100_000; try++ {
			t := g.tpls[g.rng.Intn(len(g.tpls))]
			tr, truth, ok := g.fill(t, literalText(t.domain[g.rng.Intn(len(t.domain))], t.quoted))
			if ok && !seen[tr] {
				seen[tr] = true
				return op{kind: kindCorrect, path: path, body: correctBody(tr, 1), transcript: tr, topk: 1, truth: truth}, nil
			}
		}
		return op{}, fmt.Errorf("popular: templates ran out of new values after %d reads", len(seen))
	}
	// Warm-up: one read per template, loading the warm set into the LRU.
	for _, t := range g.tpls {
		for try := 0; ; try++ {
			tr, truth, ok := g.fill(t, literalText(t.domain[g.rng.Intn(len(t.domain))], t.quoted))
			if ok && !seen[tr] {
				seen[tr] = true
				w.warm = append(w.warm, op{kind: kindCorrect, path: path, body: correctBody(tr, 1), transcript: tr, topk: 1, truth: truth})
				break
			}
			if try > 1024 {
				return fmt.Errorf("popular: template %q cannot be refilled", t.sql)
			}
		}
	}
	var (
		ops       []op
		recent    []int // indexes of recent reads that dictate catalog values
		lastAdded string
		lastPatch = -1
		probes    []int // reads dictating lastAdded
		probe     *op   // the next read: it dictates the value just added
	)
	for len(ops) < n {
		i := len(ops)
		switch {
		case probe != nil:
			probe.deps = []int{lastPatch}
			ops = append(ops, *probe)
			probes, probe = append(probes, i), nil
		case i > 0 && g.rng.Intn(popularWriteEach) == 0:
			v, rd, err := g.newProbe(probeTpls, path, lastAdded)
			if err != nil {
				return err
			}
			o := op{kind: kindPatch, path: "/api/tenants/" + popularTenant, added: v}
			o.delta.AddValues = []string{v}
			if lastAdded != "" {
				o.delta.RemoveValues = []string{lastAdded}
			}
			o.deps = append(o.deps, probes...)
			if lastPatch >= 0 {
				o.deps = append(o.deps, lastPatch)
			}
			o.body, _ = json.Marshal(o.delta) // string slices always marshal
			ops = append(ops, o)
			lastAdded, lastPatch, probes, probe = v, i, nil, &rd
		case len(recent) > 0 && g.rng.Intn(popularRepeat) == 0:
			src := ops[recent[g.rng.Intn(len(recent))]]
			src.repeat = true
			ops = append(ops, src)
		default:
			rd, err := newRead()
			if err != nil {
				return err
			}
			ops = append(ops, rd)
			recent = append(recent, i)
			if len(recent) > popularRecent {
				recent = recent[1:]
			}
		}
	}
	w.ops = ops
	return nil
}

// checksum is the FNV-64a digest of the workload's op sequence.
func (w *workload) checksum() string {
	h := fnv.New64a()
	for _, ops := range [][]op{w.warm, w.ops} {
		for i := range ops {
			o := &ops[i]
			fmt.Fprintf(h, "%s\x00%s\x00%s\x00%s\x00%d\x00%s\x00%v\n", o.kind, o.path, o.body,
				o.transcript, o.topk, strings.Join(o.clauses, "\x01"), o.deps)
		}
		h.Write([]byte{0xff})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
