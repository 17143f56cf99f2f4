module github.com/efficientfhe/smartpaf/bench

go 1.22

require github.com/efficientfhe/smartpaf v0.0.0

replace github.com/efficientfhe/smartpaf => ../
