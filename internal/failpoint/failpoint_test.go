package failpoint

import (
	"errors"
	"testing"
	"time"
)

func TestDisarmedIsFree(t *testing.T) {
	Reset()
	if err := Inject(SiteParse); err != nil {
		t.Fatalf("disarmed site injected: %v", err)
	}
	if Hits(SiteParse) != 0 {
		t.Fatal("disarmed fast path must not count hits")
	}
}

func TestErrorMode(t *testing.T) {
	Reset()
	defer Reset()
	if err := Enable(SiteSMTSolve, "error"); err != nil {
		t.Fatal(err)
	}
	err := Inject(SiteSMTSolve)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	var fe *Error
	if !errors.As(err, &fe) || fe.Site != SiteSMTSolve {
		t.Fatalf("want typed *Error with site, got %#v", err)
	}
	if Hits(SiteSMTSolve) != 1 {
		t.Fatalf("hits = %d, want 1", Hits(SiteSMTSolve))
	}
}

func TestPanicMode(t *testing.T) {
	Reset()
	defer Reset()
	if err := Enable(SiteGuardEval, "panic"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic mode did not panic")
		}
		fe, ok := r.(*Error)
		if !ok || fe.Site != SiteGuardEval {
			t.Fatalf("panic payload = %#v, want *Error{guard-eval}", r)
		}
	}()
	_ = Inject(SiteGuardEval)
}

func TestEveryNth(t *testing.T) {
	Reset()
	defer Reset()
	if err := Enable(SiteCacheRead, "error@3"); err != nil {
		t.Fatal(err)
	}
	var fired int
	for i := 0; i < 9; i++ {
		if Inject(SiteCacheRead) != nil {
			fired++
		}
	}
	if fired != 3 {
		t.Fatalf("error@3 fired %d/9 times, want 3", fired)
	}
}

func TestSleepMode(t *testing.T) {
	Reset()
	defer Reset()
	if err := Enable(SiteJobDequeue, "sleep:10ms"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := Inject(SiteJobDequeue); err != nil {
		t.Fatalf("sleep mode returned error: %v", err)
	}
	if time.Since(start) < 10*time.Millisecond {
		t.Fatal("sleep mode did not sleep")
	}
}

func TestDisableAndReset(t *testing.T) {
	Reset()
	defer Reset()
	if err := Enable(SiteLower, "error"); err != nil {
		t.Fatal(err)
	}
	Disable(SiteLower)
	if err := Inject(SiteLower); err != nil {
		t.Fatalf("disabled site injected: %v", err)
	}
	if err := Enable(SiteLower, "error"); err != nil {
		t.Fatal(err)
	}
	Reset()
	if err := Inject(SiteLower); err != nil {
		t.Fatalf("reset site injected: %v", err)
	}
}

func TestSpecValidation(t *testing.T) {
	Reset()
	defer Reset()
	for _, bad := range []struct{ site, spec string }{
		{"no-such-site", "error"},
		{SiteParse, "explode"},
		{SiteParse, "error@0"},
		{SiteParse, "error@x"},
		{SiteParse, "sleep:xyz"},
	} {
		if err := Enable(bad.site, bad.spec); err == nil {
			t.Errorf("Enable(%q, %q) accepted", bad.site, bad.spec)
		}
	}
}

func TestSitesComplete(t *testing.T) {
	s := Sites()
	if len(s) != 12 {
		t.Fatalf("registered %d sites, want 12", len(s))
	}
	for _, site := range s {
		if !known(site) {
			t.Errorf("Sites() returned unknown site %q", site)
		}
	}
}
