package xfermodel_test

import (
	"context"
	"fmt"

	"grophecy/internal/pcie"
	"grophecy/internal/units"
	"grophecy/internal/xfermodel"
)

// Example shows the paper's §III-C procedure end to end: calibrate
// the linear PCIe model from two measurements per direction, then
// predict a transfer.
func Example() {
	bus := pcie.NewBus(pcie.DefaultConfig())

	cfg := xfermodel.DefaultCalibration()
	model, err := xfermodel.CalibrateTwoPoint(context.Background(),
		xfermodel.MeanSampler(bus, cfg.Runs), cfg, nil)
	if err != nil {
		panic(err)
	}

	// Predict the upload of an 8 MB image.
	t, err := model.Predict(pcie.HostToDevice, 8*units.MB)
	if err != nil {
		panic(err)
	}
	fmt.Printf("calibrated from %d transfers\n", model.CalibrationTransfers)
	fmt.Printf("8MB upload predicted at %s\n", units.FormatSeconds(t))
	// Output:
	// calibrated from 40 transfers
	// 8MB upload predicted at 3.3ms
}

func ExampleModel_Predict() {
	m := xfermodel.Model{Alpha: 10e-6, Beta: 0.4e-9} // 10us + 2.5GB/s
	t0, _ := m.Predict(0)
	t1, _ := m.Predict(units.MB)
	fmt.Println(units.FormatSeconds(t0))
	fmt.Println(units.FormatSeconds(t1))
	// Output:
	// 10us
	// 429us
}

func ExamplePowerOfTwoSizes() {
	sizes, _ := xfermodel.PowerOfTwoSizes(1, 8)
	fmt.Println(sizes)
	// Output:
	// [1 2 4 8]
}
