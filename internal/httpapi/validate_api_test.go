package httpapi

// validate_api_test.go pins the HTTP half of the validation stage
// (DESIGN.md §15): the -validate=off wire format is byte-identical to the
// pre-validation format, verdict fields appear on validated responses
// (including n-best and stream finalize), the correction memo keys on the
// validation mode, and validate-stage faults shed validation without ever
// wedging a session.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"speakql/internal/core"
	"speakql/internal/faultinject"
)

// setValidation installs a validation stage on an isolated test server's
// engine, binding against its own demo DB.
func setValidation(api *Server, cfg core.ValidationConfig) {
	api.engine.SetValidation(cfg, api.db)
}

// rawCorrect posts one /api/correct request and returns the exact response
// bytes.
func rawCorrect(t *testing.T, url, transcript string, topk int) []byte {
	t.Helper()
	body := fmt.Sprintf(`{"transcript":%q,"topk":%d}`, transcript, topk)
	resp := postRaw(t, url+"/api/correct", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// stageTimes matches the two per-stage wall-clock fields of a correction
// body, which legitimately differ between two runs of the same request.
var stageTimes = regexp.MustCompile(`"(structure_ms|literal_ms)":\d+`)

// stripStageTimes zeroes structure_ms and literal_ms; every other byte of
// the body is kept.
func stripStageTimes(body []byte) []byte {
	return stageTimes.ReplaceAll(body, []byte(`"$1":0`))
}

func TestValidationOffWireUnchanged(t *testing.T) {
	plain := serve(t, newAPIServer(t, 0))
	off := newAPIServer(t, 0)
	setValidation(off, core.ValidationConfig{Mode: core.ValidationOff})
	offTS := serve(t, off)

	for _, req := range []struct {
		transcript string
		topk       int
	}{
		{"select salary from employees where gender equals M", 1},
		{"select first name from employees", 5},
	} {
		want := stripStageTimes(rawCorrect(t, plain.URL, req.transcript, req.topk))
		got := stripStageTimes(rawCorrect(t, offTS.URL, req.transcript, req.topk))
		if string(want) != string(got) {
			t.Errorf("validation-off body differs for %q:\n plain: %s\n   off: %s",
				req.transcript, want, got)
		}
		// And the legacy key set exactly — no validation keys may leak.
		var decoded map[string]any
		if err := json.Unmarshal(got, &decoded); err != nil {
			t.Fatal(err)
		}
		for _, forbidden := range []string{"validation"} {
			if _, ok := decoded[forbidden]; ok {
				t.Errorf("off-mode response carries %q: %s", forbidden, got)
			}
		}
		if strings.Contains(string(got), `"verdict"`) || strings.Contains(string(got), `"demoted"`) {
			t.Errorf("off-mode candidates carry verdict fields: %s", got)
		}
	}
}

func TestValidationFieldsOnNBestResponse(t *testing.T) {
	api := newAPIServer(t, 0)
	setValidation(api, core.ValidationConfig{Mode: core.ValidationBind})
	ts := serve(t, api)

	status, out := post(t, ts.URL+"/api/correct", map[string]any{
		"transcript": "select first name from employees where gender equals M", "topk": 5})
	if status != http.StatusOK {
		t.Fatalf("status = %d: %v", status, out)
	}
	if out["validation"] != "bind" {
		t.Fatalf("validation = %v, want bind (degradation %v)", out["validation"], out["degradation"])
	}
	cands, _ := out["candidates"].([]any)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	for i, c := range cands {
		if _, ok := c.(map[string]any)["verdict"].(string); !ok {
			t.Errorf("candidate %d has no verdict: %v", i, c)
		}
	}

	// The stats block reports the stage.
	stats := statsSnapshot(t, ts.URL)
	vb, ok := stats["validate"].(map[string]any)
	if !ok {
		t.Fatalf("no validate stats block: %v", stats)
	}
	if vb["mode"] != "bind" {
		t.Fatalf("validate stats mode = %v", vb["mode"])
	}
}

func TestStreamFinalizeCarriesVerdict(t *testing.T) {
	api := newAPIServer(t, 0)
	setValidation(api, core.ValidationConfig{Mode: core.ValidationBind})
	ts := serve(t, api)

	_, sess := post(t, ts.URL+"/api/session", map[string]any{})
	id := sess["id"].(string)
	status, frag := post(t, ts.URL+"/api/stream/dictate", map[string]any{
		"id": id, "seq": 1, "fragment": "select first name from employees"})
	if status != http.StatusOK {
		t.Fatalf("dictate status = %d: %v", status, frag)
	}
	status, fin := post(t, ts.URL+"/api/stream/finalize", map[string]any{"id": id})
	if status != http.StatusOK {
		t.Fatalf("finalize status = %d: %v", status, fin)
	}
	if _, ok := fin["verdict"].(string); !ok {
		t.Fatalf("finalize response has no verdict: %v", fin)
	}
	if fin["validation"] != "bind" {
		t.Fatalf("finalize validation = %v", fin["validation"])
	}
}

func TestMemoKeyedOnValidationMode(t *testing.T) {
	api := newAPIServer(t, 0)
	api.SetCorrectionMemo(16)
	ts := serve(t, api)

	const transcript = "select salary from employees where gender equals M"
	// Prime the memo with an unvalidated body.
	first := rawCorrect(t, ts.URL, transcript, 3)
	if strings.Contains(string(first), `"validation"`) {
		t.Fatalf("unvalidated body unexpectedly validated: %s", first)
	}
	if same := rawCorrect(t, ts.URL, transcript, 3); string(same) != string(first) {
		t.Fatal("memo did not replay the identical unvalidated body")
	}

	// Flip validation on (operationally: a restart with -validate=bind;
	// the memo outlives the flip). The cached unvalidated body must NOT be
	// served as a validated response.
	setValidation(api, core.ValidationConfig{Mode: core.ValidationBind})
	validated := rawCorrect(t, ts.URL, transcript, 3)
	if string(validated) == string(first) {
		t.Fatal("memo served a cached unvalidated body under -validate=bind")
	}
	if !strings.Contains(string(validated), `"validation":"bind"`) {
		t.Fatalf("validated body missing validation field: %s", validated)
	}
	// And back: the off-mode key still holds the original body.
	setValidation(api, core.ValidationConfig{Mode: core.ValidationOff})
	if again := rawCorrect(t, ts.URL, transcript, 3); string(again) != string(first) {
		t.Fatal("off-mode body no longer byte-identical after mode flip")
	}
}

// chaosValidateSpec injects faults only into the validate stage (plus
// harmless structure latency): a structure error legitimately 500s, but a
// validate fault must never — it sheds validation and serves the
// unvalidated ranking. Keeping the error mass on validate makes "every
// response is 200" a precise assertion.
const chaosValidateSpec = "seed=77;validate:error@0.4,latency=1ms@0.3;structure:latency=1ms@0.2"

func TestChaosValidateFaultsNeverWedgeSessions(t *testing.T) {
	api := newAPIServer(t, 0)
	setValidation(api, core.ValidationConfig{Mode: core.ValidationBind})
	api.SetRequestTimeout(10 * time.Second)
	ts := serve(t, api)

	_, sess := post(t, ts.URL+"/api/session", map[string]any{})
	id := sess["id"].(string)

	inj, err := faultinject.Parse(chaosValidateSpec)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Set(inj)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				body := fmt.Sprintf(`{"transcript":"select first name from employees","topk":%d}`, 1+i%5)
				resp := postRaw(t, ts.URL+"/api/correct", body)
				var out map[string]any
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					t.Errorf("worker %d: malformed response: %v", w, err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("worker %d: status %d (%v)", w, resp.StatusCode, out)
					continue
				}
				// A validate fault sheds validation, never the response:
				// candidates are always present, and validation is either a
				// mode or "shed", never an error surface.
				if out["candidates"] == nil {
					t.Errorf("worker %d: validated correction lost its candidates: %v", w, out)
				}
				if v, ok := out["validation"].(string); ok && v != "bind" && v != core.ValidationShed {
					t.Errorf("worker %d: unexpected validation value %q", w, v)
				}
			}
		}(w)
	}
	wg.Wait()
	faultinject.Set(nil)

	counts := inj.Counts()[faultinject.StageValidate]
	if counts.Errors == 0 {
		t.Fatalf("injector fired no validate errors: %+v", counts)
	}

	// The session must still dictate and finalize normally after the storm.
	status, out := post(t, ts.URL+"/api/stream/dictate", map[string]any{
		"id": id, "seq": 1, "fragment": "select last name from employees"})
	if status != http.StatusOK {
		t.Fatalf("post-chaos dictate wedged: %d %v", status, out)
	}
	if status, out = post(t, ts.URL+"/api/stream/finalize", map[string]any{"id": id}); status != http.StatusOK {
		t.Fatalf("post-chaos finalize wedged: %d %v", status, out)
	}
}
