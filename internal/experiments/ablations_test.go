package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/runner"
)

// TestAblationsBatchedSweeps pins the ablations render's batching: its
// three sweeps are submitted as one batch — every ablate job is
// submitted before the first one finishes — and the rendered bytes are
// the golden's at one worker (sweeps run back to back) and at three
// (sweeps run side by side).
func TestAblationsBatchedSweeps(t *testing.T) {
	if raceEnabled {
		t.Skip("golden byte-pinning runs at native speed")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden_ablations.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var renders []string
	for _, workers := range []int{1, 3} {
		e := NewExecConfig(runner.Config{Workers: workers})
		var buf bytes.Buffer
		if err := e.Render(&buf, "ablations", goldenOptions()); err != nil {
			e.Close()
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var infos []runner.Info
		for id := runner.JobID(1); ; id++ {
			info, ok := e.Pool().Info(id)
			if !ok {
				break
			}
			if strings.HasPrefix(info.Name, "ablate/") {
				infos = append(infos, info)
			}
		}
		e.Close()

		if len(infos) != 3 {
			t.Fatalf("workers=%d: %d ablate jobs, want 3", workers, len(infos))
		}
		var lastSubmit, firstFinish time.Time
		for _, info := range infos {
			if info.Submitted.After(lastSubmit) {
				lastSubmit = info.Submitted
			}
			if firstFinish.IsZero() || info.Finished.Before(firstFinish) {
				firstFinish = info.Finished
			}
		}
		if !lastSubmit.Before(firstFinish) {
			t.Errorf("workers=%d: an ablate job was submitted at %v, after the first finished at %v",
				workers, lastSubmit, firstFinish)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("workers=%d: ablations diverge from golden:\n%s", workers, firstDiff(buf.Bytes(), want))
		}
		renders = append(renders, buf.String())
	}
	if renders[0] != renders[1] {
		t.Error("ablations render differs between 1 and 3 workers")
	}
}
